// Package labeling implements the interval-based reachability labeling
// for geosocial networks (paper §3), based on the scheme of Agrawal et
// al. adapted to graphs with multiple roots via a spanning forest.
//
// Every vertex v of a DAG receives a post-order number post(v) from a
// spanning forest and a set of intervals L(v) over post-order numbers
// such that u is reachable from v iff some interval of L(v) contains
// post(u) (Lemma 3.1). L(v) covers exactly {post(u) : u ∈ D(v)} where
// D(v) is the descendant set of v including v itself.
//
// Two builders are provided:
//
//   - Build constructs the labeling by merging canonical label sets in
//     reverse topological order. It is the fast default.
//   - BuildAlgorithm1 follows the paper's Algorithm 1 step by step:
//     spanning forest, post-order numbering, priority-queue propagation
//     over tree edges with label-based ancestor stabbing, a second pass
//     over non-spanning edges, and a final compression pass.
//
// Both produce identical canonical label sets (the covered post set is
// the descendant set either way, and compression canonicalizes it);
// property tests in this package assert the equivalence on random DAGs.
//
// Build can also key the labels by spatial rank (Options.Spatial): L(v)
// then covers only the dense ranks of v's spatial descendants, which is
// all a RangeReach asks of it (3DReach's labels).
package labeling

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/intervals"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Options configures labeling construction.
type Options struct {
	// Forest selects the spanning-forest growth policy (default DFS).
	Forest graph.ForestPolicy
	// SkipCompression keeps the raw merged label sets, for the
	// compression ablation. The sets are still sorted and deduplicated
	// enough to answer queries, but adjacent intervals are not merged.
	SkipCompression bool
	// Parallelism bounds the workers of the reverse-topological merge:
	// 0 keeps the sequential path (the library-wide default is applied
	// by core.BuildOptions, not here), 1 forces it, n > 1 processes each
	// topological level with up to n workers. The spanning forest and
	// post-order assignment always run sequentially — they fix the
	// serialized bytes — and the parallel merge produces the identical
	// labeling: every vertex's label set is computed from the same
	// successor sets by the same function, only scheduled concurrently.
	// At two workers it measures 1.12× on yelp-like's forward labeling
	// and 1.63× on its reversed one (EXPERIMENTS.md, "Build path").
	Parallelism int
	// Spatial, when non-nil, builds a rank-keyed labeling over the
	// vertices it marks (see Labeling.Spatial): the same merge, in which
	// a vertex contributes its own singleton only if it is spatial, and
	// that singleton is its rank instead of its post.
	Spatial []bool
}

// Labeling is the interval-based labeling of a DAG.
type Labeling struct {
	// Post holds the 1-based post-order number of every vertex.
	Post []int32
	// Order lists vertices by post-order number: Order[p-1] has post p.
	Order []int32
	// Labels holds the canonical label set L(v) of every vertex.
	Labels []intervals.Set
	// Forest is the spanning forest the numbering came from.
	Forest *graph.SpanningForest
	// Spatial, when non-nil, makes the labeling rank-keyed: L(v) holds
	// the ranks of v's spatial descendants (see Keys) instead of the posts
	// of all of them. A RangeReach only ever asks a label for a spatial
	// vertex, so runs of non-spatial posts cost it nothing, and a vertex
	// with no spatial descendant has an empty label. Reach and Descendants
	// need every post and refuse such a labeling. Spatial aliases the
	// caller's mask, indexed by vertex, and MemoryBytes does not count it.
	Spatial []bool

	// UncompressedCount is the total number of labels before the final
	// compression pass, i.e. Σ|D(v)| under Algorithm 1's set-union
	// semantics where every propagated label is a descendant singleton
	// (Table 6, "uncompressed").
	UncompressedCount int64
	// CompressedCount is the total number of labels after compression
	// (Table 6, "compressed").
	CompressedCount int64
}

// Build constructs the labeling for the DAG g using the fast
// reverse-topological merge. It panics if g is not a DAG; condense
// strongly connected components first (see graph.Condense and paper §5).
func Build(g *graph.Graph, opts Options) *Labeling {
	return BuildWithForest(g, graph.NewSpanningForest(g, opts.Forest), opts)
}

// BuildWithForest is Build with an explicitly supplied spanning forest,
// letting tests reproduce the paper's hand-picked example forest and the
// ablations compare forest policies on equal footing.
func BuildWithForest(g *graph.Graph, forest *graph.SpanningForest, opts Options) *Labeling {
	l := &Labeling{
		Post:    forest.Post,
		Order:   forest.Order,
		Labels:  make([]intervals.Set, g.NumVertices()),
		Forest:  forest,
		Spatial: opts.Spatial,
	}
	keys := l.Keys()

	if p := pool.New(max(opts.Parallelism, 1)); !p.Sequential() {
		l.mergeParallel(g, p, keys)
		l.finishStats(opts)
		return l
	}

	topo, ok := g.TopoOrder()
	if !ok {
		panic("labeling: Build requires a DAG")
	}
	// Process children before parents, so every successor's label set is
	// finished — and canonical — when its predecessors merge it.
	var m merger
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		l.Labels[v] = m.label(l, g, v, keys[v])
	}
	l.finishStats(opts)
	return l
}

// mergeParallel is the level-synchronous variant of the reverse-topo
// merge: vertices of one topological height level share no edges, so
// each can merge its successors' finished label sets and write its own
// concurrently. Both variants compute a vertex through merger.label, so
// the resulting labeling — and anything serialized from it — is
// identical at any worker count.
func (l *Labeling) mergeParallel(g *graph.Graph, p *pool.Pool, keys []int32) {
	levels := graph.LevelsFromSinks(g)
	if levels == nil {
		panic("labeling: Build requires a DAG")
	}
	// One merger per worker at a time, recycled through a sync.Pool so
	// one level's scratch serves the next.
	scratch := sync.Pool{New: func() any { return new(merger) }}
	p.Levels(levels, func(v int32) {
		m := scratch.Get().(*merger)
		l.Labels[v] = m.label(l, g, v, keys[v])
		scratch.Put(m)
	})
}

// merger computes one vertex's label set from its successors' finished
// ones. It holds the list-of-sets scratch that is reused across
// vertices, so a merger serves one goroutine at a time.
type merger struct {
	sets []intervals.Set
	own  [1]intervals.Interval
}

// label returns L(v): the vertex's own singleton [key, key] — none when
// key is 0, a vertex a rank-keyed labeling does not index — united with
// every successor's label set. The inputs are canonical runs already,
// so they are merged as such (intervals.MergeManyCanonical: linear for
// two, one sweep or one key sort for more) instead of being
// concatenated and comparison-sorted; the canonical form of a union is
// unique, so the result is the set Compress() of the concatenation
// would give, interval for interval. It aliases neither the scratch nor
// a successor's set.
func (m *merger) label(l *Labeling, g *graph.Graph, v, key int32) intervals.Set {
	sets := m.sets[:0]
	if key != 0 {
		m.own[0] = intervals.Interval{Lo: key, Hi: key}
		sets = append(sets, m.own[:])
	}
	for _, u := range g.Out(int(v)) {
		if len(l.Labels[u]) > 0 {
			sets = append(sets, l.Labels[u])
		}
	}
	m.sets = sets
	set := intervals.MergeManyCanonical(sets)
	// Keep a right-sized copy: beyond two sets the merge returns a
	// clipped view of an array sized for its inputs, and storing those
	// holds 13 MB of dead capacity next to yelp-like's 29 MB of labels.
	if len(sets) > 2 || cap(set) > len(set) {
		set = set.Clone()
	}
	return set
}

// finishStats fills the Table 6 counters and optionally de-canonicalizes
// for the compression ablation.
func (l *Labeling) finishStats(opts Options) {
	for v := range l.Labels {
		l.UncompressedCount += l.Labels[v].Cardinality()
		l.CompressedCount += int64(len(l.Labels[v]))
	}
	if opts.SkipCompression {
		// The ablation keeps what Algorithm 1 holds before its final
		// compression pass: one singleton label per descendant. Queries
		// still work (the singletons stay sorted and disjoint).
		for v := range l.Labels {
			var raw intervals.Set
			for _, iv := range l.Labels[v] {
				for p := iv.Lo; p <= iv.Hi; p++ {
					raw = append(raw, intervals.Interval{Lo: p, Hi: p})
				}
			}
			l.Labels[v] = raw
		}
	}
}

// Reach answers the graph reachability query GReach(v, u): it reports
// whether u is reachable from v, by Lemma 3.1 testing whether some label
// of v contains post(u). Reach(v, v) is true. It panics on a rank-keyed
// labeling, whose labels hold no post.
func (l *Labeling) Reach(v, u int) bool {
	l.mustBePostKeyed("Reach")
	return l.Labels[v].ContainsCanonical(l.Post[u])
}

// ReachTraced is Reach with instrumentation: the probed label set L(v)
// is counted as inspected labels (the binary search consults it as a
// whole). A nil sp makes it exactly Reach.
func (l *Labeling) ReachTraced(v, u int, sp *trace.Span) bool {
	l.mustBePostKeyed("ReachTraced")
	sp.AddLabels(len(l.Labels[v]))
	return l.Labels[v].ContainsCanonical(l.Post[u])
}

func (l *Labeling) mustBePostKeyed(op string) {
	if l.Spatial != nil {
		panic("labeling: " + op + " on a rank-keyed labeling")
	}
}

// Keys returns, per vertex, the number its label sets are keyed by: the
// post-order number, or in a rank-keyed labeling the spatial rank — 1
// plus the number of spatial vertices with a smaller post, 0 for a
// vertex that is not spatial. A post-keyed labeling returns Post itself;
// a rank-keyed one derives the ranks from Order and Spatial into a new
// slice, so the ranks are never stored beside the labels.
func (l *Labeling) Keys() []int32 {
	if l.Spatial == nil {
		return l.Post
	}
	keys := make([]int32, len(l.Post))
	rank := int32(0)
	for _, v := range l.Order {
		if l.Spatial[v] {
			rank++
			keys[v] = rank
		}
	}
	return keys
}

// Ranked returns the rank-keyed labeling over spatial that l, a
// post-keyed one, projects to: each interval [lo, hi] becomes the ranks
// of the spatial vertices whose posts it covers, an empty one is
// dropped, and neighbours that meet are merged. The map from posts to
// ranks is monotone, so the result is canonical and equal, set for set,
// to what Build with Options.Spatial computes directly. Post, Order and
// Forest are shared with l. It is for labelings read from files written
// before rank keys; a build should not take this detour.
func (l *Labeling) Ranked(spatial []bool) *Labeling {
	l.mustBePostKeyed("Ranked")
	// below[p] counts the spatial vertices with post ≤ p.
	below := make([]int32, len(l.Order)+1)
	for i, v := range l.Order {
		below[i+1] = below[i]
		if spatial[v] {
			below[i+1]++
		}
	}
	out := &Labeling{
		Post:    l.Post,
		Order:   l.Order,
		Labels:  make([]intervals.Set, len(l.Labels)),
		Forest:  l.Forest,
		Spatial: spatial,
	}
	data := make(intervals.Set, 0, l.TotalLabels())
	for v, set := range l.Labels {
		start := len(data)
		for _, iv := range set {
			lo, hi := below[iv.Lo-1]+1, below[iv.Hi]
			if lo > hi {
				continue
			}
			if n := len(data); n > start && data[n-1].Hi+1 >= lo {
				data[n-1].Hi = hi
				continue
			}
			data = append(data, intervals.Interval{Lo: lo, Hi: hi})
		}
		out.Labels[v] = data[start:len(data):len(data)]
	}
	out.finishStats(Options{})
	return out
}

// PostOf returns the post-order number of v.
func (l *Labeling) PostOf(v int) int32 { return l.Post[v] }

// VertexAt returns the vertex with the given 1-based post-order number.
func (l *Labeling) VertexAt(post int32) int32 { return l.Order[post-1] }

// NumVertices returns the number of labeled vertices.
func (l *Labeling) NumVertices() int { return len(l.Post) }

// Descendants enumerates D(v), the descendant set of v including v
// itself, by expanding every label interval over the post-order domain
// (paper §4.1, the SocReach core). fn is called once per descendant; if
// it returns false the enumeration stops and Descendants returns false.
// It panics on a rank-keyed labeling, whose labels hold no post.
func (l *Labeling) Descendants(v int, fn func(u int32) bool) bool {
	l.mustBePostKeyed("Descendants")
	for _, iv := range l.Labels[v] {
		for p := iv.Lo; p <= iv.Hi; p++ {
			if !fn(l.Order[p-1]) {
				return false
			}
		}
	}
	return true
}

// DescendantCount returns |D(v)| without enumerating.
func (l *Labeling) DescendantCount(v int) int64 {
	return l.Labels[v].Cardinality()
}

// MemoryBytes returns the footprint of the labeling: 8 bytes per interval
// plus the post-order arrays, matching the index-size accounting of
// Table 4.
func (l *Labeling) MemoryBytes() int64 {
	var total int64
	for _, s := range l.Labels {
		total += s.MemoryBytes()
	}
	total += int64(4 * (len(l.Post) + len(l.Order)))
	return total
}

// TotalLabels returns the current total number of stored intervals.
func (l *Labeling) TotalLabels() int64 {
	var total int64
	for _, s := range l.Labels {
		total += int64(len(s))
	}
	return total
}
