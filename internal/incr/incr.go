// Package incr maintains a 3DReach index under mutation. Where the old
// dynamic engine rejected cycle-creating edges and absorbed every other
// update by rebuilding, incr keeps the SCC condensation itself live in
// the style of DAGGER (Yildirim et al.): cycle-closing inserts merge
// the affected super-vertices, deletes split lazily with a bounded
// recompute frontier, and interval labels are re-derived only over the
// affected ancestor cone. Spatial state follows the same philosophy
// (spatial.go): the base is the static engine's point tiles
// (internal/tiles) keyed by post, superseded entries are tombstoned in
// a paged column, and patched venues go to an overlay bucketed by the
// cells of a coarse occupancy grid (GeoReach-style), which is also a
// conservative query prefilter. The overlay is periodically folded into
// fresh tiles.
//
// The resulting post-order numbering is sparse: merges and splits
// retire component posts, which are never reused (maxPost only grows).
// That is safe because no live venue entry ever carries a dead post — a
// dead post inside a label interval can therefore never produce a
// false positive — and it is what keeps patches local: live posts stay
// valid forever, so the base never needs re-keying. When the
// patch frontier would exceed a dirty fraction of the live components,
// or retired posts outnumber live ones, the engine falls back to a
// full rebuild, which re-densifies everything.
package incr

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/intervals"
	"repro/internal/labeling"
	"repro/internal/tiles"
)

// Mode selects how the index absorbs updates.
type Mode int

const (
	// Incremental patches the condensation, labels and spatial state
	// locally per mutation. This is the default.
	Incremental Mode = iota
	// FullRebuild marks the index dirty on every mutation and rebuilds
	// everything from the original graph before the next query or
	// snapshot — the old behavior, kept for A/B comparison.
	FullRebuild
)

// Options configures an incremental index.
type Options struct {
	// Mode selects incremental patching (default) or full rebuilds.
	Mode Mode
	// Parallelism bounds the workers used by full rebuilds' labeling
	// (0/1 = sequential).
	Parallelism int
	// DirtyFraction is the patch-frontier threshold: when a relabel
	// cone (or a split's piece count) exceeds this fraction of the
	// live components, the engine rebuilds instead of patching. The
	// cone recompute is change-pruned — bounded by the labels that
	// actually change, which a full rebuild would also recompute along
	// with the condensation and the spatial index — so patching is
	// never substantially worse than rebuilding and the default of 1
	// disables the fallback. Set a lower fraction to force rebuilds on
	// wide cones (useful as an A/B lever). 0 means the default.
	DirtyFraction float64
	// OverlayMin is the count of foldable overlay entries plus
	// tombstones below which the base is never folded. 0 means the
	// default of 128.
	OverlayMin int
}

const (
	defaultDirtyFraction = 1
	defaultOverlayMin    = 128
)

// Stats counts the structural operations the index has performed, for
// observability and benchmark reporting.
type Stats struct {
	Merges         int // cycle-closing inserts that merged components
	Splits         int // deletes that split a component
	SplitChecks    int // intra-component deletes that ran a local SCC pass
	ConeRelabels   int // bounded ancestor-cone relabel passes
	RelabeledComps int // total components relabeled by those passes
	FullRebuilds   int // dirty-fraction (or mode) fallbacks taken
	Folds          int // overlay folds into fresh base tiles
	LiveComps      int // current live components
	DeadComps      int // retired component slots since the last rebuild
	OverlayLen     int // current overlay entries, an extent's replicas each
	StaleLen       int // current base tombstones
	// MaxLabelIntervals is the widest live label, the fragmentation the
	// update stream has caused. Stats refreshes it from the label pages
	// written since the last call.
	MaxLabelIntervals int
}

// Index is the mutable engine. It has a single-writer concurrency
// model: mutations and direct queries must come from one goroutine,
// while Snapshot returns immutable views safe for concurrent readers.
type Index struct {
	opts Options

	// Original graph: mutable adjacency over original vertex ids.
	n       int
	out, in [][]int32
	spatial paged[bool]
	geo     []geom.Rect // venue geometry; zero for social vertices

	// Live condensation. Component ids index these slices; retired ids
	// keep alive=false, nil members and post 0 until the next rebuild.
	// The four columns a snapshot captures (spatial above, comp, post,
	// labels) are paged and copy-on-write; the rest is the writer's own.
	comp       paged[int32]
	alive      []bool
	members    [][]int32
	outC, inC  []adjRow     // DAG adjacency, refcounted by original edges
	post       paged[int32] // sparse 1-based post; 0 = retired
	labels     paged[intervals.Set]
	labelWidth labelWidths // the widest label, per page of labels
	maxPost    int32       // only grows: retired posts are never reused
	liveComps  int
	deadComps  int

	// Spatial state (spatial.go): immutable base tiles, their
	// tombstones, the overlay as of the last flush and the venues queued
	// for the next.
	base    *tiles.Tiles
	basePos []int32     // venue → its position in the base columns; -1 if none
	dead    paged[bool] // per base position: superseded by an overlay entry
	tombs   int         // dead base entries
	ov      *overlay
	patched []int32 // venues patched since the last flush, in patch order
	marks   flagSet // the venues a flush enters into the overlay afresh
	grid    *occGrid

	dirty bool // FullRebuild mode: a mutation is pending
	// pending holds components whose labels may have shrunk after DAG
	// edge deletions, and pendingSplits the intra-component deletes
	// whose split probes have not run yet. Both are deferred to the
	// next label read (query, snapshot, validation, or an insert's
	// cycle check), so a burst of deletes between publications shares
	// one structural pass — and when that pass escalates to a full
	// rebuild, the whole burst costs one rebuild, matching what the
	// FullRebuild mode amortizes.
	pending       map[int32]bool
	pendingSplits [][2]int
	stats         Stats

	// Scratch, reused across calls so that no walk allocates per call or
	// pays for more than it visits. vmark and cmark are the visited
	// marks of the vertex walks (splitCheck's probes) and the component
	// walks (propagate, cycleRegion, mergeCycle, relabelCone); peelMark
	// is a second vertex set for the searches of a peel certificate,
	// which start afresh per source while vmark's closures persist;
	// askMark holds the border vertices one certificate has searched
	// from, and pivotMark the closure of a pivot certificate's z₀.
	vmark, peelMark, askMark, pivotMark, cmark flagSet
	fwd, bwd, peel, pivot                      closure         // the split probes' searches, kept for their queues
	loose                                      []int32         // the closures certificates peeled off, for the SCC pass
	restSlot                                   []int32         // splitCheck: a remainder vertex's index in the local SCC pass
	sets                                       []intervals.Set // relabel merge inputs
	// probeSteps counts the vertices split checks have visited: each
	// expansion of a probe or certificate search, and each vertex of a
	// rest SCC pass. The certificates' budget and the cost guard on
	// splitting read it.
	probeSteps int
}

// New builds an incremental index over the prepared network.
func New(prep *dataset.Prepared, opts Options) *Index {
	if opts.DirtyFraction <= 0 {
		opts.DirtyFraction = defaultDirtyFraction
	}
	if opts.OverlayMin <= 0 {
		opts.OverlayMin = defaultOverlayMin
	}
	n := prep.Net.NumVertices()
	x := &Index{
		opts:    opts,
		n:       n,
		out:     make([][]int32, n),
		in:      make([][]int32, n),
		spatial: pagedFrom(slices.Clone(prep.Net.Spatial)),
		geo:     make([]geom.Rect, n),
		basePos: make([]int32, n),
		ov:      &overlay{},
		grid:    newOccGrid(prep.Net.Space()),
	}
	for u := 0; u < n; u++ {
		if adj := prep.Net.Graph.Out(u); len(adj) > 0 {
			x.out[u] = append([]int32(nil), adj...)
		}
		if prep.Net.Spatial[u] {
			x.geo[u] = prep.Net.GeometryOf(u)
			x.grid.add(x.geo[u])
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range x.out[u] {
			x.in[v] = append(x.in[v], int32(u))
		}
	}
	x.rebuildDerived()
	x.stats.FullRebuilds = 0 // the initial build is not a fallback
	return x
}

// Name implements the engine naming contract; the incremental index
// keeps the method name of the engine it replaces.
func (x *Index) Name() string { return "3DReach-Dynamic" }

// NumVertices returns the current number of vertices.
func (x *Index) NumVertices() int { return x.n }

// Stats returns operation counters plus current structural sizes. It
// flushes the venues patched since the last read, so the sizes are
// those a query would see.
func (x *Index) Stats() Stats {
	x.flushSpatial()
	s := x.stats
	s.LiveComps = x.liveComps
	s.DeadComps = x.deadComps
	s.OverlayLen = x.ov.n
	s.StaleLen = x.tombs
	s.MaxLabelIntervals = x.labelWidth.widest(x.labels.column)
	return s
}

// setLabel is the one place a component's label is replaced.
func (x *Index) setLabel(c int32, l intervals.Set) {
	x.labels.set(c, l)
	x.labelWidth.touch(int(c >> pageBits))
}

// labelWidths keeps Stats' MaxLabelIntervals from walking every label
// on every call (rrserve asks once per publish): it holds the widest
// label of each page of the labels column and re-scans only the pages
// written since it was last asked.
type labelWidths struct {
	max   []int32 // per page, as of its last scan
	stale []bool  // page written since then
}

func (w *labelWidths) touch(page int) {
	for len(w.max) <= page {
		w.max = append(w.max, 0)
		w.stale = append(w.stale, false)
	}
	w.stale[page] = true
}

// reset marks every page of a swapped-in column for scanning.
func (w *labelWidths) reset(labels column[intervals.Set]) {
	w.max, w.stale = w.max[:0], w.stale[:0]
	for k := range labels.pages {
		w.touch(k)
	}
}

func (w *labelWidths) widest(labels column[intervals.Set]) int {
	widest := int32(0)
	for k, stale := range w.stale {
		if stale {
			w.stale[k], w.max[k] = false, 0
			// Slots past the column's length are zero, so the whole page scans.
			for _, l := range labels.pages[k] {
				w.max[k] = max(w.max[k], int32(len(l)))
			}
		}
		widest = max(widest, w.max[k])
	}
	return int(widest)
}

// MemoryBytes estimates the index footprint.
func (x *Index) MemoryBytes() int64 {
	var labelIvs int64
	for c := 0; c < x.labels.len(); c++ {
		labelIvs += int64(len(x.labels.at(int32(c))))
	}
	edges := 0
	for _, adj := range x.out {
		edges += len(adj)
	}
	var b int64
	b += labelIvs * 8
	b += int64(edges) * 8 // out + in
	b += int64(x.comp.len())*4 + int64(x.post.len())*4
	b += x.base.MemoryBytes()
	b += int64(x.dead.len()) // one byte per tombstone flag
	b += x.ov.memoryBytes()
	b += int64(len(x.grid.cells)) * 4
	return b
}

// AddUser appends a social vertex and returns its id.
func (x *Index) AddUser() int {
	v := x.addVertex(false)
	return v
}

// AddVenue appends a spatial vertex at (x, y) and returns its id. It
// panics if a coordinate is NaN or infinite, as RangeReach does for an
// out-of-range vertex: the caller is at fault, and there is no error to
// return.
func (x *Index) AddVenue(px, py float64) int {
	if err := checkFinite(px, py); err != nil {
		panic(err)
	}
	v := x.addVertex(true)
	x.geo[v] = geom.RectFromPoint(geom.Pt(px, py))
	x.grid.add(x.geo[v])
	if x.opts.Mode == FullRebuild {
		return v
	}
	x.patchVenue(int32(v))
	return v
}

// checkFinite rejects a location the grid and the tiles cannot place.
func checkFinite(px, py float64) error {
	if !geom.RectFromPoint(geom.Pt(px, py)).Finite() {
		return fmt.Errorf("incr: venue location (%v, %v) is not finite", px, py)
	}
	return nil
}

func (x *Index) addVertex(spatial bool) int {
	v := x.n
	x.n++
	x.out = append(x.out, nil)
	x.in = append(x.in, nil)
	x.spatial.append(spatial)
	x.geo = append(x.geo, geom.Rect{})
	x.basePos = append(x.basePos, -1)
	if x.opts.Mode == FullRebuild {
		x.comp.append(0) // placeholder; rebuilt before use
		x.dirty = true
		return v
	}
	c := x.allocComp()
	x.comp.append(c)
	x.members[c] = []int32{int32(v)}
	x.setLabel(c, intervals.Singleton(x.post.at(c)))
	return v
}

// AddEdge inserts the directed edge (u, v). Unlike the engine it
// replaces, a cycle-closing edge is not an error: the affected
// components merge into one super-vertex. Self-loops and duplicate
// edges are no-ops.
func (x *Index) AddEdge(u, v int) error {
	if u < 0 || u >= x.n || v < 0 || v >= x.n {
		return fmt.Errorf("incr: edge (%d,%d) out of range [0,%d)", u, v, x.n)
	}
	if u == v || x.hasEdge(u, v) {
		return nil
	}
	if x.opts.Mode == FullRebuild {
		x.out[u] = append(x.out[u], int32(v))
		x.in[v] = append(x.in[v], int32(u))
		x.dirty = true
		return nil
	}
	// Deferred relabels leave labels over-approximate (deletes only
	// shrink them), so a negative cycle check against stale labels is
	// definitive. A positive may be the staleness talking: make the
	// condensation exact (replay queued splits — relabels can stay
	// deferred) and settle it with a structural region search. The
	// replay runs BEFORE (u, v) enters the adjacency — a replayed
	// split would otherwise re-derive the new edge into the DAG and
	// the addDAGEdge below would count it twice.
	cu, cv := x.comp.at(int32(u)), x.comp.at(int32(v))
	var region []int32
	if cu != cv && x.labels.at(cv).ContainsCanonical(x.post.at(cu)) {
		x.flushSplits()
		// Splits and rebuilds reassign component ids; neither can
		// rejoin u and v, so they are still distinct.
		cu, cv = x.comp.at(int32(u)), x.comp.at(int32(v))
		region = x.cycleRegion(cu, cv)
	}
	x.out[u] = append(x.out[u], int32(v))
	x.in[v] = append(x.in[v], int32(u))
	if cu == cv {
		return nil // intra-component: the condensation is unchanged
	}
	if region != nil {
		// v really reaches u: the new edge closes a cycle.
		x.mergeCycle(region)
		return nil
	}
	fresh := x.addDAGEdge(cu, cv) == 1
	if fresh {
		// labels[cv] may still be stale (an over-approximation). That
		// keeps the invariant "stored ⊇ exact, and any stale component
		// reaches a pending seed": if cv is stale it reaches a seed,
		// the new edge makes cu and its ancestors reach that seed too,
		// and the flush cone recomputes them all exactly.
		x.propagate([]int32{cu}, x.labels.at(cv))
	}
	return nil
}

// DeleteEdge removes the directed edge (u, v). Deleting an edge inside
// a component may split it; the split is recomputed only over that
// component's induced subgraph, and labels only over the ancestor cone.
func (x *Index) DeleteEdge(u, v int) error {
	if u < 0 || u >= x.n || v < 0 || v >= x.n {
		return fmt.Errorf("incr: edge (%d,%d) out of range [0,%d)", u, v, x.n)
	}
	if !x.removeEdge(u, v) {
		return fmt.Errorf("incr: no such edge (%d,%d)", u, v)
	}
	if x.opts.Mode == FullRebuild {
		x.dirty = true
		return nil
	}
	cu, cv := x.comp.at(int32(u)), x.comp.at(int32(v))
	if cu == cv {
		// Defer the split probe to the next flush: until then the
		// component is provisionally whole, so labels over-approximate
		// true reachability — the same safe direction as deferred
		// relabels. The flush replays the burst's deletes one by one
		// against an exact condensation, so each probe sees the
		// single-edge-removed case its correctness argument needs, and
		// an escalation to a full rebuild is paid once for the burst.
		x.pendingSplits = append(x.pendingSplits, [2]int{u, v})
		return nil
	}
	x.interCompDelete(cu, cv)
	return nil
}

// interCompDelete retires one refcount of the DAG edge cu→cv after an
// original edge between the two components was removed.
func (x *Index) interCompDelete(cu, cv int32) {
	if x.decDAGEdge(cu, cv) != 0 {
		return
	}
	if len(x.pending) == 0 && len(x.pendingSplits) == 0 && x.coveredElsewhere(cu, cv) {
		// Some remaining successor's label covers everything the
		// removed successor contributed, so L(cu) — and therefore
		// every ancestor label — is unchanged. This is the common
		// case for high-out-degree components and skips the cone
		// walk entirely. (Only trustworthy when no relabel or split
		// is pending: a stale successor label could vouch falsely.)
		return
	}
	// The DAG lost an edge: cu and its ancestors may shrink. The
	// relabel is deferred to the next label read so consecutive
	// deletes share one cone walk.
	if x.pending == nil {
		x.pending = make(map[int32]bool)
	}
	x.pending[cu] = true
}

// coveredElsewhere reports whether another successor of cu fully covers
// cv's label on its own. Sufficient, not necessary: a union of several
// successors may also cover it, which the cone relabel discovers by
// recomputing and comparing.
func (x *Index) coveredElsewhere(cu, cv int32) bool {
	lv := x.labels.at(cv)
	for _, e := range x.outC[cu] {
		if x.labels.at(e.to).CoversCanonical(lv) {
			return true
		}
	}
	return false
}

// MoveVenue relocates venue v to (x, y), patching its spatial entry
// and the occupancy grid in place. A venue with an extent becomes a
// point. NaN or infinite coordinates are an error.
func (x *Index) MoveVenue(v int, px, py float64) error {
	if v < 0 || v >= x.n {
		return fmt.Errorf("incr: vertex %d out of range [0,%d)", v, x.n)
	}
	if !x.spatial.at(int32(v)) {
		return fmt.Errorf("incr: vertex %d is not a venue", v)
	}
	if err := checkFinite(px, py); err != nil {
		return err
	}
	old := x.geo[v]
	x.geo[v] = geom.RectFromPoint(geom.Pt(px, py))
	x.grid.remove(old)
	x.grid.add(x.geo[v])
	if x.opts.Mode == FullRebuild {
		x.dirty = true
		return nil
	}
	x.patchVenue(int32(v))
	return nil
}

func (x *Index) hasEdge(u, v int) bool {
	for _, w := range x.out[u] {
		if w == int32(v) {
			return true
		}
	}
	return false
}

func (x *Index) removeEdge(u, v int) bool {
	found := false
	for i, w := range x.out[u] {
		if w == int32(v) {
			x.out[u] = append(x.out[u][:i], x.out[u][i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	for i, w := range x.in[v] {
		if w == int32(u) {
			x.in[v] = append(x.in[v][:i], x.in[v][i+1:]...)
			break
		}
	}
	return true
}

// ensure applies any pending FullRebuild-mode mutations, then the
// deferred relabels and the queued venue patches.
func (x *Index) ensure() {
	if x.dirty {
		x.fullRebuild()
		x.dirty = false
	}
	x.flushRelabels()
	x.flushSpatial()
}

// flushRelabels resolves the deferred structural work: queued
// intra-component deletes first, then the deferred cone relabel over
// every pending seed. It reports whether the flush escalated to a full
// rebuild (after which every derived structure is exact, not just the
// labels).
//
// The queued deletes are replayed one at a time: their edges go back
// into the adjacency (condensation-neutral, since each was inside its
// component when queued and merges keep it there), and then each is
// removed again against a condensation that is exact for the graph
// with the remaining queued edges still present. That way every split
// probe faces exactly the single-edge-removed case its correctness
// argument requires — probing against a graph missing several queued
// edges at once could certify a piece that a still-queued delete has
// already disconnected internally.
func (x *Index) flushRelabels() (rebuilt bool) {
	rebuilt = x.flushSplits()
	if len(x.pending) == 0 {
		return rebuilt
	}
	seeds := make([]int32, 0, len(x.pending))
	for c := range x.pending {
		if x.alive[c] {
			seeds = append(seeds, c)
		}
	}
	x.pending = nil
	if len(seeds) == 0 {
		return rebuilt
	}
	// Map iteration order is random; sort so the relabel (and its
	// fallback decision) is deterministic for a given op sequence.
	slices.Sort(seeds)
	return !x.relabelCone(seeds) || rebuilt
}

// flushSplits replays only the queued intra-component deletes, leaving
// deferred relabels pending. Cycle-closing inserts use it to make the
// condensation exact — their region discovery is structural, so stale
// labels are tolerable but a provisionally-unsplit component is not.
// It reports whether a replayed split escalated to a full rebuild.
func (x *Index) flushSplits() (rebuilt bool) {
	if len(x.pendingSplits) == 0 {
		return false
	}
	ps := x.pendingSplits
	x.pendingSplits = nil
	before := x.stats.FullRebuilds
	for _, e := range ps {
		x.out[e[0]] = append(x.out[e[0]], int32(e[1]))
		x.in[e[1]] = append(x.in[e[1]], int32(e[0]))
	}
	for _, e := range ps {
		x.removeEdge(e[0], e[1])
		if cu, cv := x.comp.at(int32(e[0])), x.comp.at(int32(e[1])); cu == cv {
			// A mid-replay rebuild keeps the state exact — the
			// not-yet-replayed edges were present in the adjacency
			// it derived from — so the replay just carries on.
			x.splitCheck(cu, e[0], e[1])
		} else {
			// An earlier replayed split separated the endpoints;
			// its re-derivation saw this edge in the adjacency and
			// counted it into the DAG, so retire it like any
			// inter-component delete.
			x.interCompDelete(cu, cv)
		}
	}
	return x.stats.FullRebuilds != before
}

// fullRebuild re-derives the condensation, labels and spatial state
// from the original graph. Posts become dense again; retired slots and
// the overlay disappear.
func (x *Index) fullRebuild() {
	x.pending = nil // rebuilt labels are exact; nothing left to heal
	// Queued split probes are moot too: the rebuild derives the
	// condensation from an adjacency their deletes already left. (A
	// rebuild during a flush replay sees the replayed edges re-added,
	// which is equally exact; the replay loop holds its own copy.)
	x.pendingSplits = nil
	x.rebuildDerived()
	x.stats.FullRebuilds++
}

// liveGraph is the current adjacency as an immutable graph.
func (x *Index) liveGraph() *graph.Graph {
	b := graph.NewBuilder(x.n)
	for u, adj := range x.out {
		for _, v := range adj {
			b.AddEdge(u, int(v))
		}
	}
	return b.Build()
}

func (x *Index) rebuildDerived() {
	cond := x.liveGraph().Condense()
	nc := len(cond.Members)
	l := labeling.Build(cond.DAG, labeling.Options{Parallelism: x.opts.Parallelism})

	// Whole columns are swapped, not written page by page: snapshots keep
	// the old ones.
	x.comp = pagedFrom(cond.Comp)
	x.members = cond.Members
	x.post = pagedFrom(l.Post)
	x.labels = pagedFrom(l.Labels)
	x.labelWidth.reset(x.labels.column)
	// A full rebuild re-densifies the post space, so the high-water mark
	// legitimately drops; snapshots pin the old numbering and never mix
	// with the new one.
	x.maxPost = int32(nc)
	x.alive = make([]bool, nc)
	for c := range x.alive {
		x.alive[c] = true
	}
	x.buildAdjacency(cond.DAG, cond.Comp)
	x.liveComps = nc
	x.deadComps = 0
	x.foldBase()
	x.stats.Folds-- // the fold above is part of the rebuild, not a patch-window fold
}
