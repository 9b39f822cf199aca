package incr

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/labeling"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// qview is the read-only state a RangeReach evaluation needs. Both the
// live Index and its snapshots evaluate through it, so the two paths
// cannot drift.
type qview struct {
	n       int
	comp    column[int32]
	labels  column[intervals.Set]
	base    *rtree.Flat[geom.Box3]
	overlay []rtree.Entry[geom.Box3]
	stale   map[int32]struct{}
	grid    *occGrid
}

// rangeReach evaluates 3DReach over patched state at a cost of nodes
// touched plus overlay entries, however many intervals the label has.
// The occupancy grid goes first (a region with no venues anywhere
// answers false in a few cell reads). Then the base tree is searched
// once for the whole label: a single-interval label — every label
// until updates fragment it — is the paper's one cuboid; a fragmented
// one prunes the same descent by "x/y meets r and the z-range overlaps
// some interval", which expands the union of the nodes the per-interval
// cuboids would, each once. Tombstoned entries are skipped at the
// leaves. Then one pass over the bounded overlay.
func (q qview) rangeReach(v int, r geom.Rect, sp *trace.Span) bool {
	if v < 0 || v >= q.n {
		panic(fmt.Sprintf("incr: vertex %d out of range [0,%d)", v, q.n))
	}
	if !q.grid.maybe(r) {
		return false
	}
	label := q.labels.at(q.comp.at(int32(v)))
	sp.AddLabels(len(label))
	t := sp.Start()
	ok := q.baseAny(r, label, sp) || q.overlayAny(r, label, sp)
	sp.End(trace.StageSpatial, t)
	return ok
}

// baseAny reports whether a live base entry lies in r × label.
func (q qview) baseAny(r geom.Rect, label intervals.Set, sp *trace.Span) bool {
	live := func(id int32) bool {
		_, dead := q.stale[id]
		return !dead
	}
	if len(label) == 1 {
		box := geom.Box3FromRect(r, float64(label[0].Lo), float64(label[0].Hi))
		return !q.base.SearchTraced(box, sp, func(e rtree.Entry[geom.Box3]) bool { return !live(e.ID) })
	}
	return q.base.SearchAnyWhere(sp, func(b *geom.Box3) bool { return labeling.MeetsCuboids(b, r, label) }, live)
}

// overlayAny reports whether an overlay entry lies in r × label,
// testing each entry once.
func (q qview) overlayAny(r geom.Rect, label intervals.Set, sp *trace.Span) bool {
	sp.AddOverlay(len(q.overlay))
	for i := range q.overlay {
		if labeling.MeetsCuboids(&q.overlay[i].Box, r, label) {
			return true
		}
	}
	return false
}

func (x *Index) view() qview {
	return qview{
		n:       x.n,
		comp:    x.comp.column,
		labels:  x.labels.column,
		base:    x.base,
		overlay: x.overlay,
		stale:   x.stale,
		grid:    x.grid,
	}
}

// RangeReach reports whether vertex v currently reaches a spatial
// vertex intersecting r.
func (x *Index) RangeReach(v int, r geom.Rect) bool {
	return x.RangeReachTraced(v, r, nil)
}

// RangeReachTraced is RangeReach with per-stage instrumentation: label
// intervals visited, base-tree node/leaf/entry counts, and overlay
// entry tests all accumulate into sp.
func (x *Index) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	x.ensure()
	return x.view().rangeReach(v, r, sp)
}
