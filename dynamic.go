package rangereach

import (
	"runtime"

	"repro/internal/incr"
)

// DynamicIndex is an updatable 3DReach index: it answers RangeReach
// queries while the network changes — new users and venues, added and
// deleted follow/check-in edges, venues moving. Updates are absorbed
// incrementally (internal/incr): a cycle-closing insert merges the
// affected strongly-connected components into one super-vertex, a
// delete splits its component lazily with a bounded recompute
// frontier, and interval labels are re-derived only over the affected
// ancestor cone, falling back to a full rebuild when patching would
// cost more (see WithFullRebuildUpdates for the A/B escape hatch).
//
// A DynamicIndex has a single-writer concurrency model: updates and
// direct queries must be issued from one goroutine (or be externally
// serialized), but Snapshot returns an immutable view that any number
// of goroutines may query concurrently while the writer keeps
// updating. This is the primitive behind the rrserve snapshot-swap
// serving mode.
type DynamicIndex struct {
	engine *incr.Index
}

// BuildDynamic constructs an updatable 3DReach index over the
// network's current state. Two options apply to the dynamic engine:
// WithParallelism (the workers of its labeling builds) and
// WithFullRebuildUpdates. The rest, WithRTreeFanout included, are
// ignored: the dynamic index keeps its venues in the static 3DReach
// engine's point tiles and a grid-bucketed overlay, not in an R-tree.
func (n *Network) BuildDynamic(options ...Option) *DynamicIndex {
	var cfg buildConfig
	for _, o := range options {
		o(&cfg)
	}
	if cfg.opts.Parallelism == 0 {
		cfg.opts.Parallelism = runtime.NumCPU()
	}
	mode := incr.Incremental
	if cfg.dynFullRebuild {
		mode = incr.FullRebuild
	}
	return &DynamicIndex{engine: incr.New(n.prep, incr.Options{
		Mode:        mode,
		Parallelism: cfg.opts.Parallelism,
	})}
}

// NumVertices returns the current number of vertices, including ones
// added through the index.
func (idx *DynamicIndex) NumVertices() int { return idx.engine.NumVertices() }

// AddUser appends a social vertex and returns its id.
func (idx *DynamicIndex) AddUser() int { return idx.engine.AddUser() }

// AddVenue appends a spatial vertex at (x, y) and returns its id. It
// panics, naming the coordinates, if either is NaN or infinite.
func (idx *DynamicIndex) AddVenue(x, y float64) int { return idx.engine.AddVenue(x, y) }

// AddEdge inserts a follow/check-in edge (from, to). An edge that
// closes a cycle merges the affected components instead of being
// rejected; self-loops and duplicates are no-ops. It returns an error
// only when an endpoint is out of range.
func (idx *DynamicIndex) AddEdge(from, to int) error { return idx.engine.AddEdge(from, to) }

// DeleteEdge removes the edge (from, to), splitting its component if
// the deletion breaks a cycle. It returns an error if an endpoint is
// out of range or the edge does not exist.
func (idx *DynamicIndex) DeleteEdge(from, to int) error { return idx.engine.DeleteEdge(from, to) }

// MoveVenue relocates venue v to (x, y); a venue with an extent
// becomes a point. It returns an error if v is out of range or not a
// venue, or if a coordinate is NaN or infinite.
func (idx *DynamicIndex) MoveVenue(v int, x, y float64) error { return idx.engine.MoveVenue(v, x, y) }

// UpdateStats reports how the index has absorbed its updates so far.
type UpdateStats struct {
	// Merges counts cycle-closing inserts that merged components.
	Merges int
	// Splits counts deletes that split a component.
	Splits int
	// ConeRelabels counts bounded ancestor-cone label patches;
	// RelabeledComps totals the components those passes touched.
	ConeRelabels   int
	RelabeledComps int
	// FullRebuilds counts dirty-fraction fallbacks (in
	// WithFullRebuildUpdates mode, every absorbed batch).
	FullRebuilds int
	// Folds counts overlay folds into fresh base tiles.
	Folds int
	// SplitChecks counts deletes inside a component that ran a local
	// strong-connectivity probe, whether or not it split.
	SplitChecks int

	// The rest is current state, not history: what a query pays for.
	// OverlayLen is the number of venue entries kept beside the base
	// tiles — venues patched since the last fold, and every venue with
	// an extent, once per grid cell it covers — and StaleLen the base
	// entries they supersede (tombstones). A query that misses the base
	// tests only the overlay entries of the grid cells its region meets.
	// A fold empties both, extents apart.
	OverlayLen int
	StaleLen   int
	// LiveComps and DeadComps count strongly connected components in
	// use and retired since the last full rebuild; retired ones leave
	// holes in the post-order numbering, which is what fragments labels.
	LiveComps int
	DeadComps int
	// MaxLabelIntervals is the interval count of the most fragmented
	// label. A call re-scans only the pages of labels (256 to a page)
	// written since the previous call.
	MaxLabelIntervals int
}

// UpdateStats returns the index's update-absorption counters. Call it
// from the writer, like any other non-snapshot access.
func (idx *DynamicIndex) UpdateStats() UpdateStats {
	s := idx.engine.Stats()
	return UpdateStats{
		Merges:         s.Merges,
		Splits:         s.Splits,
		ConeRelabels:   s.ConeRelabels,
		RelabeledComps: s.RelabeledComps,
		FullRebuilds:   s.FullRebuilds,
		Folds:          s.Folds,
		SplitChecks:    s.SplitChecks,

		OverlayLen:        s.OverlayLen,
		StaleLen:          s.StaleLen,
		LiveComps:         s.LiveComps,
		DeadComps:         s.DeadComps,
		MaxLabelIntervals: s.MaxLabelIntervals,
	}
}

// RangeReach reports whether vertex v currently reaches a spatial
// vertex inside r.
func (idx *DynamicIndex) RangeReach(v int, r Rect) bool {
	return idx.engine.RangeReach(v, r.internal())
}

// MemoryBytes returns the current index footprint.
func (idx *DynamicIndex) MemoryBytes() int64 { return idx.engine.MemoryBytes() }

// DynamicSnapshot is an immutable point-in-time view of a DynamicIndex.
// It is safe for concurrent use by any number of goroutines, including
// while the index it was taken from continues to be updated by its
// single writer. Taking a snapshot costs what the updates since the
// last one changed, not what the index holds: per-vertex state and the
// tombstones are shared with the index page by page, and the base tiles
// and the overlay by pointer.
// Nothing writes through a DynamicSnapshot once it is returned: readers
// share it without a lock.
type DynamicSnapshot struct {
	snap *incr.Snapshot
}

// Snapshot captures the index's current state. Must be called from the
// writer (the same goroutine — or critical section — that issues
// updates); the returned snapshot itself is freely shareable.
func (idx *DynamicIndex) Snapshot() *DynamicSnapshot {
	return &DynamicSnapshot{snap: idx.engine.Snapshot()}
}

// NumVertices returns the number of vertices at capture time.
func (s *DynamicSnapshot) NumVertices() int { return s.snap.NumVertices() }

// RangeReach reports whether vertex v reached a spatial vertex inside r
// at capture time. It panics if v is out of the snapshot's range. The
// cost is one walk of the base tiles, as the static 3DReach engine
// walks them, plus the overlay entries of the grid cells r meets,
// however many intervals updates have split v's label into and however
// many venues were patched since the last fold; Explain reports both
// per query.
func (s *DynamicSnapshot) RangeReach(v int, r Rect) bool {
	return s.snap.RangeReach(v, r.internal())
}
