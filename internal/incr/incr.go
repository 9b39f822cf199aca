// Package incr maintains a 3DReach index under mutation. Where the old
// dynamic engine rejected cycle-creating edges and absorbed every other
// update by rebuilding, incr keeps the SCC condensation itself live in
// the style of DAGGER (Yildirim et al.): cycle-closing inserts merge
// the affected super-vertices, deletes split lazily with a bounded
// recompute frontier, and interval labels are re-derived only over the
// affected ancestor cone. Spatial state follows the same philosophy
// (spatial.go): the base is the static engine's tiles
// (internal/tiles) keyed by post, superseded entries are tombstoned in
// a paged column, and patched venues go to an overlay bucketed by the
// cells of a coarse uniform grid (grid.Uniform). A query walks the base
// tiles as the static engine does, then the overlay entries of the
// cells its region meets. The overlay is periodically folded into fresh
// tiles.
//
// The resulting post-order numbering is sparse: merges and splits
// retire component posts, which are never reused (maxPost only grows).
// That is safe because no live venue entry ever carries a dead post — a
// dead post inside a label interval can therefore never produce a
// false positive — and it is what keeps patches local: live posts stay
// valid forever, so the base never needs re-keying.
//
// An epoch, the updates between two label reads, patches until its
// counted work passes budgetFactor·(|V|+|E|); its later updates only
// edit the adjacency and the next read rebuilds, as it does when
// retired posts outnumber live ones (DESIGN.md §15).
package incr

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/intervals"
	"repro/internal/labeling"
	"repro/internal/tiles"
)

// Mode selects how the index absorbs updates.
type Mode int

const (
	// Incremental patches each epoch within its work budget (default).
	Incremental Mode = iota
	// FullRebuild gives every epoch a budget of zero, so each read after
	// an update rebuilds: the reference arm of rrbench and the tests.
	FullRebuild
)

// Options configures an incremental index.
type Options struct {
	Mode Mode
	// Parallelism bounds the workers used by full rebuilds' labeling
	// (0/1 = sequential).
	Parallelism int

	// Test hooks, each replacing a default when positive: the counting
	// rule's threshold (cover.go), defaultOverlayMin and the work budget.
	coverMin, overlayMin, budget int
}

const (
	// defaultOverlayMin is the count of foldable overlay entries plus
	// tombstones below which the base is never folded.
	defaultOverlayMin = 128
	// budgetFactor is c in an epoch's work budget c·(|V|+|E|), chosen
	// from the presets' work per epoch (DESIGN.md §15).
	budgetFactor = 4
)

// Stats counts the structural operations the index has performed, for
// observability and benchmark reporting.
type Stats struct {
	Merges         int // cycle-closing inserts that merged components
	Splits         int // deletes that split a component
	SplitChecks    int // intra-component deletes that ran a local SCC pass
	ConeRelabels   int // bounded ancestor-cone relabel passes
	RelabeledComps int // total components relabeled by those passes
	FullRebuilds   int // rebuilds after an epoch passed its work budget, or to compact
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
	memberPos  []int32      // vertex v's position in members[comp[v]]
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
	patched []int32       // venues patched since the last flush, in patch order
	marks   flagSet       // the venues a flush enters into the overlay afresh
	grid    *grid.Uniform // the overlay's cells; fixed at New

	// edges is |E|; work is the epoch's counted patch work (spend); dirty
	// says it reached the budget, so the next read rebuilds.
	edges, work int
	dirty       bool
	// pending holds components whose labels may have shrunk after DAG
	// edge deletions, and pendingSplits the intra-component deletes
	// whose split probes have not run yet. Both are deferred to the
	// next label read (query, snapshot, validation, or an insert's
	// cycle check), so a burst of deletes between publications shares
	// one structural pass.
	pending       map[int32]bool
	pendingSplits [][2]int
	stats         Stats

	// cov is the counted component's label as a coverage count (cover.go).
	cov cover

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
	coneSucc                                   []int32         // relabelCone: a cone member's cone successors not yet done
	// probeSteps counts the vertices split checks have visited: each
	// expansion of a probe or certificate search, each vertex of a rest
	// SCC pass, and each member the partition reads. The certificates'
	// limit and the cost guards on splitting read it.
	probeSteps int
	// relabelReads counts the successor labels relabelCone has gathered
	// for merges; the cost guard on relabeling the giant reads it.
	relabelReads int
	// back is cycleRegion's backward set, and cycleReads counts the DAG
	// row entries it has read and the lookups it has made; the cost
	// guard on cycle-closing inserts reads it.
	back       []int32
	cycleReads int
}

// New builds an incremental index over the prepared network, starting
// from Prepare's work: the adjacency is views over one private copy of
// the network's CSR rows, and the first condensation is Prepare's, its
// member runs scattered back into ascending order. Nothing is written
// into prep.
func New(prep *dataset.Prepared, opts Options) *Index {
	if opts.overlayMin <= 0 {
		opts.overlayMin = defaultOverlayMin
	}
	net := prep.Net
	n, g := net.NumVertices(), net.Graph
	cells := grid.NewUniform(net.Space())
	x := &Index{
		opts:    opts,
		n:       n,
		out:     copyRows(n, g.NumEdges(), g.Out),
		in:      copyRows(n, g.NumEdges(), g.In),
		spatial: pagedFrom(slices.Clone(net.Spatial)),
		geo:     make([]geom.Rect, n),
		basePos: make([]int32, n),
		ov:      &overlay{},
		grid:    &cells,
		edges:   g.NumEdges(),
	}
	for u, s := range net.Spatial {
		if s {
			x.geo[u] = net.GeometryOf(u)
		}
	}
	comp := slices.Clone(prep.Comp)
	off, members := memberRuns(comp, prep.NumComponents())
	x.rebuildDerived(prep.DAG, comp, off, members)
	return x
}

// copyRows copies the n rows row(0), ..., row(n-1), m entries in all,
// into one array and returns each as a view of it with its capacity
// clipped to its length: a delete stays inside the row, and an append
// reallocates it rather than run into the next.
func copyRows(n, m int, row func(u int) []int32) [][]int32 {
	back := make([]int32, m)
	views := make([][]int32, n)
	for u, off := 0, 0; u < n; u++ {
		end := off + copy(back[off:], row(u))
		views[u] = back[off:end:end]
		off = end
	}
	return views
}

// memberRuns lists every component's vertices in one column, each run
// ascending, as Condense does: component c's are
// members[off[c]:off[c+1]]. One counting scatter over comp, with each
// vertex counted two slots up so that off[c+1] is c's cursor during
// the scatter and its end after it.
func memberRuns(comp []int32, nc int) (off, members []int32) {
	off = make([]int32, nc+1)
	for _, c := range comp {
		if int(c)+2 <= nc {
			off[c+2]++
		}
	}
	for c := 2; c <= nc; c++ {
		off[c] += off[c-1]
	}
	members = make([]int32, len(comp))
	for v, c := range comp {
		members[off[c+1]] = int32(v)
		off[c+1]++
	}
	return off, members
}

// Name implements the engine naming contract; the incremental index
// keeps the method name of the engine it replaces.
func (x *Index) Name() string { return "3DReach-Dynamic" }

// NumVertices returns the current number of vertices.
func (x *Index) NumVertices() int { return x.n }

// Stats returns operation counters plus current structural sizes. It
// readies the index the way a read does (ensure: the deferred patches,
// or the rebuild of an epoch that ran out of budget, and the venues
// patched since the last read), so the sizes are those a query would
// see, and the next update starts a new epoch.
func (x *Index) Stats() Stats {
	x.ensure()
	s := x.stats
	s.LiveComps = x.liveComps
	s.DeadComps = x.deadComps
	s.OverlayLen = x.ov.n
	s.StaleLen = x.tombs
	s.MaxLabelIntervals = x.labelWidth.widest(x.labels.column)
	return s
}

// setLabel is the one place a component's label is replaced. A
// successor of the counted component moves its label in the count too.
func (x *Index) setLabel(c int32, l intervals.Set) {
	if v := &x.cov; v.c >= 0 && v.succ[c] {
		v.add(x.labels.at(c), -1)
		v.add(l, 1)
	}
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
	if !x.dirty {
		x.patchVenue(int32(v))
	}
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
	x.memberPos = append(x.memberPos, 0)
	if x.spend(0) {
		x.comp.append(0) // placeholder; rebuilt before use
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
	if !x.spend(0) && cu != cv && x.labels.at(cv).ContainsCanonical(x.post.at(cu)) {
		// Splits and compactions reassign component ids; neither can
		// rejoin u and v, so they are still distinct.
		if x.flushSplits(); !x.dirty {
			cu, cv = x.comp.at(int32(u)), x.comp.at(int32(v))
			region = x.cycleRegion(cu, cv)
		}
	}
	x.link(u, v)
	if x.dirty || cu == cv {
		return nil // the epoch rebuilds, or the condensation is unchanged
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
	if x.spend(0) {
		return nil
	}
	cu, cv := x.comp.at(int32(u)), x.comp.at(int32(v))
	if cu == cv {
		// Defer the split probe to the next flush: until then the
		// component is provisionally whole, so labels over-approximate
		// true reachability — the same safe direction as deferred
		// relabels. The flush replays the burst's deletes one by one
		// against an exact condensation, so each probe sees the
		// single-edge-removed case its correctness argument needs.
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

// MoveVenue relocates venue v to (x, y), patching its spatial entry. A
// venue with an extent becomes a point. NaN or infinite coordinates are
// an error.
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
	x.geo[v] = geom.RectFromPoint(geom.Pt(px, py))
	if !x.spend(0) {
		x.patchVenue(int32(v))
	}
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

// link adds the edge (u, v) to the adjacency.
func (x *Index) link(u, v int) {
	x.out[u] = append(x.out[u], int32(v))
	x.in[v] = append(x.in[v], int32(u))
	x.edges++
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
	x.edges--
	for i, w := range x.in[v] {
		if w == int32(u) {
			x.in[v] = append(x.in[v][:i], x.in[v][i+1:]...)
			break
		}
	}
	return true
}

// ensure readies the index for a read and starts a new epoch: it
// flushes the deferred work, or rebuilds once the epoch is dirty.
func (x *Index) ensure() {
	if !x.dirty {
		x.flushRelabels()
	}
	if x.dirty {
		x.fullRebuild()
	}
	x.flushSpatial()
	x.work = 0
}

// budget is the epoch's work budget: the test hook's, zero for the
// FullRebuild arm, budgetFactor·(|V|+|E|) otherwise.
func (x *Index) budget() int {
	if x.opts.Mode == FullRebuild || x.opts.budget > 0 {
		return x.opts.budget
	}
	return budgetFactor * (x.n + x.edges)
}

// spend counts n units of patch work (label intervals and adjacency
// entries read, vertices a split check visits) and reports whether the
// epoch has reached its budget, marking it dirty. A caller told so
// abandons its patch, leaving rebuildDerived to re-derive whatever it
// left half done; mutations call spend(0) before patching.
func (x *Index) spend(n int) bool {
	if x.work += n; x.work >= x.budget() {
		x.dirty = true
	}
	return x.dirty
}

// flushRelabels resolves the deferred structural work: queued
// intra-component deletes first, then the deferred cone relabel over
// every pending seed.
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
func (x *Index) flushRelabels() {
	if x.flushSplits(); x.dirty || len(x.pending) == 0 {
		return
	}
	seeds := make([]int32, 0, len(x.pending))
	for c := range x.pending {
		if x.alive[c] {
			seeds = append(seeds, c)
		}
	}
	x.pending = nil
	if len(seeds) > 0 {
		// Map iteration order is random; sort so that the relabel, and
		// where it runs out of budget, are deterministic.
		slices.Sort(seeds)
		x.relabelCone(seeds)
	}
}

// flushSplits replays only the queued intra-component deletes, leaving
// deferred relabels pending. Cycle-closing inserts use it to make the
// condensation exact — their region discovery is structural, so stale
// labels are tolerable but a provisionally-unsplit component is not.
// Out of budget, the rest of the queue only leaves the adjacency.
func (x *Index) flushSplits() {
	ps := x.pendingSplits
	x.pendingSplits = nil
	for _, e := range ps {
		x.link(e[0], e[1])
	}
	for _, e := range ps {
		x.removeEdge(e[0], e[1])
		if x.dirty {
			continue
		}
		if cu, cv := x.comp.at(int32(e[0])), x.comp.at(int32(e[1])); cu == cv {
			// A mid-replay compaction keeps the state exact — the
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
}

// fullRebuild re-derives the condensation, labels and spatial state
// from the original graph. Posts become dense again; retired slots and
// the overlay disappear.
func (x *Index) fullRebuild() {
	x.dirty = false
	x.pending = nil // rebuilt labels are exact; nothing left to heal
	// Queued split probes are moot too: the rebuild derives the
	// condensation from an adjacency their deletes already left. (A
	// rebuild during a flush replay sees the replayed edges re-added,
	// which is equally exact; the replay loop holds its own copy.)
	x.pendingSplits = nil
	cond := x.liveGraph().Condense()
	off, members := cond.MemberColumns()
	x.rebuildDerived(cond.DAG, cond.Comp, off, members)
	x.stats.FullRebuilds++
}

// liveGraph is the current adjacency as an immutable graph: the out
// rows are copied as they are, each sorted on its own, with no sort of
// the whole edge list.
func (x *Index) liveGraph() *graph.Graph {
	return graph.FromRows(x.n, x.edges, func(u int, row []int32) []int32 {
		return append(row, x.out[u]...)
	})
}

// rebuildDerived derives everything but the adjacency from a
// condensation of it: the DAG, each vertex's component and the
// components' ascending member runs (memberOff and members, as
// Condense's MemberColumns). It takes comp and members over and writes
// into them: New passes a copy of Prepare's Comp and the runs
// memberRuns scatters from it, fullRebuild a fresh Condense's columns.
func (x *Index) rebuildDerived(dag *graph.Graph, comp, memberOff, members []int32) {
	nc := dag.NumVertices()
	l := labeling.Build(dag, labeling.Options{Parallelism: x.opts.Parallelism})

	// Whole columns are swapped, not written page by page: snapshots keep
	// the old ones. The per-component slices start as views of the
	// member column and of the columns Build made; each is capped at its
	// length, so a merge's append copies rather than writing into a
	// neighbour's run, and a split's removals stay inside the component's
	// own.
	runs := make([][]int32, nc)
	labels := make([]intervals.Set, nc)
	x.memberPos = slices.Grow(x.memberPos[:0], x.n)[:x.n]
	for c := range nc {
		lo, hi := memberOff[c], memberOff[c+1]
		runs[c], labels[c] = members[lo:hi:hi], l.Label(c)
		for i, v := range runs[c] {
			x.memberPos[v] = int32(i)
		}
	}
	x.comp = pagedFrom(comp)
	x.members = runs
	x.post = pagedFrom(l.Post)
	x.labels = pagedFrom(labels)
	x.labelWidth.reset(x.labels.column)
	// A full rebuild re-densifies the post space, so the high-water mark
	// legitimately drops; snapshots pin the old numbering and never mix
	// with the new one.
	x.maxPost = int32(nc)
	x.alive = make([]bool, nc)
	for c := range x.alive {
		x.alive[c] = true
	}
	x.buildAdjacency(dag, comp)
	x.countWidest()
	x.liveComps = nc
	x.deadComps = 0
	x.foldBase()
	x.stats.Folds-- // the fold above is part of the rebuild, not a patch-window fold
}
