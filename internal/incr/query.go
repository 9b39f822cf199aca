package incr

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/intervals"
	"repro/internal/tiles"
	"repro/internal/trace"
)

// qview is the read-only state a RangeReach evaluation needs. Both the
// live Index and its snapshots evaluate through it, so the two paths
// cannot drift.
type qview struct {
	n      int
	comp   column[int32]
	labels column[intervals.Set]
	base   *tiles.Tiles
	dead   column[bool]
	tombs  int
	ov     *overlay
	grid   *grid.Uniform // the overlay's cells
}

// rangeReach evaluates 3DReach over patched state at a cost the
// region's tiles and grid cells bound, however many intervals the label
// has and however large the overlay: the static engine's walk of the
// base tiles, once for the whole label, with the tombstones as its
// filter, then the overlay entries of the grid cells r meets.
func (q qview) rangeReach(v int, r geom.Rect, sp *trace.Span) bool {
	if v < 0 || v >= q.n {
		panic(fmt.Sprintf("incr: vertex %d out of range [0,%d)", v, q.n))
	}
	// An inverted or NaN region meets no geometry; the grid's cell
	// ranges assume neither.
	if !r.Valid() {
		return false
	}
	label := q.labels.at(q.comp.at(int32(v)))
	sp.AddLabels(len(label))
	t := sp.Start()
	var dead func(k int) bool
	if q.tombs > 0 {
		col := q.dead
		dead = func(k int) bool { return col.at(int32(k)) }
	}
	ok := q.base.Any(r, label, dead, sp) || q.ov.any(q.grid, r, label, sp)
	sp.End(trace.StageSpatial, t)
	return ok
}

func (x *Index) view() qview {
	return qview{
		n:      x.n,
		comp:   x.comp.column,
		labels: x.labels.column,
		base:   x.base,
		dead:   x.dead.column,
		tombs:  x.tombs,
		ov:     x.ov,
		grid:   x.grid,
	}
}

// RangeReach reports whether vertex v currently reaches a spatial
// vertex intersecting r.
func (x *Index) RangeReach(v int, r geom.Rect) bool {
	return x.RangeReachTraced(v, r, nil)
}

// RangeReachTraced is RangeReach with per-stage instrumentation: label
// intervals visited, the base tiles' slab/cell/point counts, and the
// overlay entries tested all accumulate into sp.
func (x *Index) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	x.ensure()
	return x.view().rangeReach(v, r, sp)
}
