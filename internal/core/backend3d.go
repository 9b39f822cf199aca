package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/labeling"
	"repro/internal/pool"
	"repro/internal/rtree"
	"repro/internal/spatialgrid"
	"repro/internal/trace"
)

// SpatialBackend selects the 3D point index behind 3DReach (Replicate
// policy). The paper notes the R-tree "can be replaced by another
// structure as long as it is able to index the three-dimensional space"
// (§7.2); rrbench's ablation-3d compares the two.
type SpatialBackend int

const (
	// BackendRTree is the paper's choice: an STR-bulk-loaded 3D R-tree.
	BackendRTree SpatialBackend = iota
	// BackendGrid is a uniform 3D grid.
	BackendGrid
)

// String implements fmt.Stringer.
func (b SpatialBackend) String() string {
	switch b {
	case BackendRTree:
		return "rtree"
	case BackendGrid:
		return "grid"
	default:
		return fmt.Sprintf("SpatialBackend(%d)", int(b))
	}
}

// pointIndex3 abstracts the two primitives point-based 3DReach needs:
// "is there any indexed 3D point inside this box?" for a one-interval
// label and "inside r × some interval of label?" for a longer one. The
// span threads the per-backend work counters out; nil disables them.
type pointIndex3 interface {
	AnyInBox(q geom.Box3, sp *trace.Span) bool
	AnyInLabel(r geom.Rect, label intervals.Set, sp *trace.Span) bool
	MemoryBytes() int64
}

// anyInBoxes is AnyInLabel as the paper states it, one cuboid query per
// interval: the form of a backend without a label-pruned traversal.
func anyInBoxes(idx pointIndex3, r geom.Rect, label intervals.Set, sp *trace.Span) bool {
	for _, iv := range label {
		if idx.AnyInBox(geom.Box3FromRect(r, float64(iv.Lo), float64(iv.Hi)), sp) {
			return true
		}
	}
	return false
}

// anyInLabel reports whether t holds an entry e inside r × some
// interval of label with keep(e.ID), in one traversal that expands a
// node only where its rectangle meets r and its z-range overlaps the
// label.
func anyInLabel(t *rtree.Flat[geom.Box3], r geom.Rect, label intervals.Set, sp *trace.Span, keep func(id int32) bool) bool {
	return t.SearchAnyWhere(sp, func(b *geom.Box3) bool { return labeling.MeetsCuboids(b, r, label) }, keep)
}

// anyID accepts every witness: the trees whose hits need no
// verification.
func anyID(int32) bool { return true }

// point3 is the backend-neutral input record.
type point3 struct {
	x, y, z float64
	id      int32
}

// buildPointIndex3 constructs the selected backend over the points. A
// non-sequential pool parallelizes the R-tree STR packing; the grid
// build stays sequential (one bucketing pass). The index is identical
// either way.
func buildPointIndex3(pts []point3, backend SpatialBackend, fanout int, p *pool.Pool) pointIndex3 {
	switch backend {
	case BackendGrid:
		gpts := make([]spatialgrid.Point, len(pts))
		for i, p := range pts {
			gpts[i] = spatialgrid.Point{X: p.x, Y: p.y, Z: p.z, ID: p.id}
		}
		return gridIndex{spatialgrid.New(gpts, 0)}
	default:
		entries := make([]rtree.Entry[geom.Box3], len(pts))
		for i, p := range pts {
			entries[i] = rtree.Entry[geom.Box3]{
				Box: geom.Box3FromPoint(geom.Pt3(p.x, p.y, p.z)),
				ID:  p.id,
			}
		}
		return rtreeIndex{rtree.BulkLoadPool(entries, fanout, 24, p)}
	}
}

type rtreeIndex struct{ t *rtree.Flat[geom.Box3] }

func (r rtreeIndex) AnyInBox(q geom.Box3, sp *trace.Span) bool {
	_, ok := r.t.SearchAnyTraced(q, sp)
	return ok
}

func (r rtreeIndex) AnyInLabel(q geom.Rect, label intervals.Set, sp *trace.Span) bool {
	return anyInLabel(r.t, q, label, sp, anyID)
}

func (r rtreeIndex) MemoryBytes() int64 { return r.t.MemoryBytes() }

type gridIndex struct{ g *spatialgrid.Grid }

func (g gridIndex) AnyInBox(q geom.Box3, sp *trace.Span) bool {
	return !g.g.SearchBox3Traced(q, sp, func(spatialgrid.Point) bool { return false })
}

func (g gridIndex) AnyInLabel(r geom.Rect, label intervals.Set, sp *trace.Span) bool {
	return anyInBoxes(g, r, label, sp)
}

func (g gridIndex) MemoryBytes() int64 { return g.g.MemoryBytes() }
