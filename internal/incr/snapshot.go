package incr

import (
	"repro/internal/geom"
	"repro/internal/trace"
)

// Snapshot is an immutable point-in-time view of an Index, safe for
// concurrent use by any number of goroutines while the owning index
// keeps absorbing updates on its single writer. Taking one costs what
// the epoch changed, not what the index holds: the per-vertex and
// per-component columns and the tombstones are shared by page (the
// writer copies a page before its first write to it afterwards), and
// the base tiles, the overlay and its cell mapping are shared by
// pointer since they are only ever replaced, never mutated: Snapshot
// copies nothing. Nothing writes through a Snapshot once it is
// returned: readers share it without a lock.
type Snapshot struct {
	q       qview
	spatial column[bool]
	post    column[int32]
}

// Snapshot captures the index's current state. Must be called from the
// writer; the returned snapshot itself is freely shareable. Label sets
// are shared — patches replace label sets with freshly merged ones
// rather than mutating them, which is what makes the share safe.
func (x *Index) Snapshot() *Snapshot {
	x.ensure()
	return &Snapshot{
		q: qview{
			n:      x.n,
			comp:   x.comp.freeze(),
			labels: x.labels.freeze(),
			base:   x.base,
			dead:   x.dead.freeze(),
			tombs:  x.tombs,
			ov:     x.ov,
			grid:   x.grid,
		},
		spatial: x.spatial.freeze(),
		post:    x.post.freeze(),
	}
}

// NumVertices returns the number of vertices at capture time.
func (s *Snapshot) NumVertices() int { return s.q.n }

// Name matches the owning index's method name.
func (s *Snapshot) Name() string { return "3DReach-Dynamic" }

// RangeReach answers the query against the captured state: the same
// evaluation as the live index (qview.rangeReach) — one walk of the
// shared base tiles for the whole label, then the captured overlay's
// entries in the region's grid cells — without allocating.
func (s *Snapshot) RangeReach(v int, r geom.Rect) bool {
	return s.q.rangeReach(v, r, nil)
}

// RangeReachTraced answers the query against the captured state with
// the same instrumentation as Index.RangeReachTraced.
func (s *Snapshot) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	return s.q.rangeReach(v, r, sp)
}
