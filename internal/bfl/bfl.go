// Package bfl implements the Bloom-Filter Labeling reachability index of
// Su et al. (VLDB 2017), the scheme the paper selects for its
// spatial-first baseline SpaReach-BFL "due to its promising results"
// (§7.1).
//
// Every vertex v of a DAG carries:
//
//   - a DFS interval [Discover, Finish]: if v's interval contains u's,
//     then u is a DFS-tree descendant of v and reachability holds — an
//     O(1) positive test;
//   - L_out(v): a Bloom-filter set over hashed vertex ids summarizing
//     everything reachable *from* v;
//   - L_in(v): the symmetric summary of everything that reaches v.
//
// GReach(v, u) is answered as: positive by interval containment; negative
// whenever L_out(u) ⊄ L_out(v) or L_in(v) ⊄ L_in(u) (a superset of u's
// reachable set must appear inside v's, and dually for ancestors);
// otherwise a DFS from v toward u, pruned by the same two tests at every
// expanded vertex.
package bfl

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/trace"
)

// DefaultBits is the default Bloom-filter width in bits. Su et al. use
// small constant-size filters (s ≈ 160 hash buckets); 256 bits keeps the
// containment test to four word operations.
const DefaultBits = 256

// Index is a BFL reachability index over a DAG.
type Index struct {
	g        *graph.Graph
	words    int
	hash     []int32  // hash[v] = bucket of v in [0, bits)
	out      []uint64 // len n*words; L_out filters
	in       []uint64 // len n*words; L_in filters
	discover []int32  // DFS-tree interval start
	finish   []int32  // DFS-tree interval end (post-order position)
}

// Options configures index construction.
type Options struct {
	// Bits is the Bloom-filter width; 0 means DefaultBits. It is rounded
	// up to a multiple of 64.
	Bits int
	// Seed fixes the hash assignment for reproducible benchmarks.
	Seed int64
}

// Build constructs the BFL index for the DAG g. It panics if g has a
// cycle; condense strongly connected components first.
func Build(g *graph.Graph, opts Options) *Index {
	bits := opts.Bits
	if bits <= 0 {
		bits = DefaultBits
	}
	words := (bits + 63) / 64
	bits = words * 64
	n := g.NumVertices()

	idx := &Index{
		g:        g,
		words:    words,
		hash:     make([]int32, n),
		out:      make([]uint64, n*words),
		in:       make([]uint64, n*words),
		discover: make([]int32, n),
		finish:   make([]int32, n),
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for v := range idx.hash {
		idx.hash[v] = int32(rng.Intn(bits))
	}

	topo, ok := g.TopoOrder()
	if !ok {
		panic("bfl: Build requires a DAG; condense SCCs first")
	}

	// L_out: children before parents.
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		w := idx.filter(idx.out, int(v))
		w[idx.hash[v]/64] |= 1 << (uint(idx.hash[v]) % 64)
		for _, u := range g.Out(int(v)) {
			orInto(w, idx.filter(idx.out, int(u)))
		}
	}
	// L_in: parents before children.
	for _, v := range topo {
		w := idx.filter(idx.in, int(v))
		w[idx.hash[v]/64] |= 1 << (uint(idx.hash[v]) % 64)
		for _, u := range g.In(int(v)) {
			orInto(w, idx.filter(idx.in, int(u)))
		}
	}

	idx.buildIntervals()
	return idx
}

// filter returns the words of vertex v inside the backing array.
func (idx *Index) filter(backing []uint64, v int) []uint64 {
	return backing[v*idx.words : (v+1)*idx.words]
}

// orInto sets dst |= src.
func orInto(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// subset reports whether a ⊆ b.
func subset(a, b []uint64) bool {
	for i := range a {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// buildIntervals runs one DFS over the whole DAG (roots first) and
// records discover/finish numbers; interval containment then certifies
// DFS-tree descendants.
func (idx *Index) buildIntervals() {
	g := idx.g
	n := g.NumVertices()
	visited := make([]bool, n)
	var clock int32
	type frame struct {
		v   int32
		pos int32
	}
	var frames []frame
	dfs := func(root int32) {
		visited[root] = true
		clock++
		idx.discover[root] = clock
		frames = append(frames[:0], frame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			adj := g.Out(int(f.v))
			advanced := false
			for int(f.pos) < len(adj) {
				u := adj[f.pos]
				f.pos++
				if !visited[u] {
					visited[u] = true
					clock++
					idx.discover[u] = clock
					frames = append(frames, frame{v: u})
					advanced = true
					break
				}
			}
			if !advanced {
				clock++
				idx.finish[f.v] = clock
				frames = frames[:len(frames)-1]
			}
		}
	}
	for v := 0; v < n; v++ {
		if g.InDegree(v) == 0 && !visited[v] {
			dfs(int32(v))
		}
	}
	for v := 0; v < n; v++ {
		if !visited[v] {
			dfs(int32(v))
		}
	}
}

// treeContains reports whether u is a DFS-tree descendant of v.
func (idx *Index) treeContains(v, u int) bool {
	return idx.discover[v] <= idx.discover[u] && idx.finish[u] <= idx.finish[v]
}

// prunable reports whether u is certainly NOT reachable from v, by the
// two Bloom containment tests.
func (idx *Index) prunable(v, u int) bool {
	if !subset(idx.filter(idx.out, u), idx.filter(idx.out, v)) {
		return true
	}
	return !subset(idx.filter(idx.in, v), idx.filter(idx.in, u))
}

// Reach answers GReach(v, u): whether g contains a path from v to u.
func (idx *Index) Reach(v, u int) bool {
	return idx.ReachTraced(v, u, nil)
}

// ReachTraced is Reach with instrumentation: every vertex expanded by
// the pruned-DFS fallback counts as a visited graph vertex (the O(1)
// interval and Bloom tests are free by design and not counted). A nil
// sp makes it exactly Reach.
func (idx *Index) ReachTraced(v, u int, sp *trace.Span) bool {
	if v == u {
		return true
	}
	if idx.treeContains(v, u) {
		return true
	}
	if idx.prunable(v, u) {
		return false
	}
	// Pruned DFS fallback.
	visited := make(map[int32]struct{}, 64)
	return idx.search(int32(v), int32(u), visited, sp)
}

func (idx *Index) search(v, target int32, visited map[int32]struct{}, sp *trace.Span) bool {
	visited[v] = struct{}{}
	sp.IncGraphVisited()
	for _, u := range idx.g.Out(int(v)) {
		if u == target {
			return true
		}
		if _, seen := visited[u]; seen {
			continue
		}
		if idx.treeContains(int(u), int(target)) {
			return true
		}
		if idx.prunable(int(u), int(target)) {
			continue
		}
		if idx.search(u, target, visited, sp) {
			return true
		}
	}
	return false
}

// MemoryBytes returns the index footprint: both filter arrays, the hash
// assignment and the DFS intervals (Table 4 accounting).
func (idx *Index) MemoryBytes() int64 {
	return int64(8*(len(idx.out)+len(idx.in))) +
		int64(4*(len(idx.hash)+len(idx.discover)+len(idx.finish)))
}
