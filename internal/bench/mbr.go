package bench

import (
	"time"

	"repro/internal/bfl"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/pool"
	"repro/internal/rtree"
)

// reachIndex is the MBR arm's probe: BFL or interval labels.
type reachIndex interface {
	Reach(v, u int) bool
	MemoryBytes() int64
}

// mbrSpaReach is SpaReach under the paper's MBR policy (§5), the arm
// Figure 5 and Tables 4–5 measure the library's Replicate against: an
// R-tree of one bounding rectangle per spatial component. A query runs
// the faithful two phases, materializing the rectangles meeting R, then
// probing each, and confirms a reached one with its exact members unless
// it lies inside R. Not a production path; not safe for concurrent use.
type mbrSpaReach struct {
	prep  *dataset.Prepared
	reach reachIndex
	tree  *rtree.Flat[geom.Rect]
	cands []rtree.Entry[geom.Rect]
}

// mbrReach builds the reach index of each SpaReach method, the methods
// with an MBR arm, over a DAG with a worker bound, which BFL's
// sequential build does not use.
var mbrReach = map[core.Method]func(*graph.Graph, int) reachIndex{
	core.MethodSpaReachBFL: func(g *graph.Graph, _ int) reachIndex { return bfl.Build(g, bfl.Options{}) },
	core.MethodSpaReachINT: func(g *graph.Graph, j int) reachIndex { return labeling.Build(g, labeling.Options{Parallelism: j}) },
}

// buildMBRArm builds the MBR arm over the reach index that build makes,
// the index and the rectangle tree concurrently as the library's
// SpaReach builds its two phases, and returns it with its build time.
func buildMBRArm(prep *dataset.Prepared, build func(*graph.Graph, int) reachIndex, parallelism int) (*mbrSpaReach, time.Duration) {
	start := time.Now()
	p := pool.New(max(parallelism, 1))
	e := &mbrSpaReach{prep: prep}
	p.Run(
		func() { e.reach = build(prep.DAG, parallelism) },
		func() { e.tree = componentTree(prep, p) },
	)
	return e, time.Since(start)
}

// componentTree bulk-loads one rectangle per spatial component, the
// bounding box of its spatial members (entry id = component).
func componentTree(prep *dataset.Prepared, p *pool.Pool) *rtree.Flat[geom.Rect] {
	var entries []rtree.Entry[geom.Rect]
	for c := range prep.NumComponents() {
		if !prep.HasSpatial[c] {
			continue
		}
		box := geom.EmptyRect()
		for _, v := range prep.SpatialMembers(c) {
			box = box.Union(prep.GeometryOf(v))
		}
		entries = append(entries, rtree.Entry[geom.Rect]{Box: box, ID: int32(c)})
	}
	return rtree.BulkLoadPool(entries, rtree.DefaultMaxEntries, 0, p)
}

// RangeReach answers with the two phases of SpaReach under MBR.
func (e *mbrSpaReach) RangeReach(v int, r geom.Rect) bool {
	e.cands = e.cands[:0]
	e.tree.Search(r, func(entry rtree.Entry[geom.Rect]) bool {
		e.cands = append(e.cands, entry)
		return true
	})
	src := int(e.prep.CompOf(v))
	for _, cand := range e.cands {
		c := int(cand.ID)
		if !e.reach.Reach(src, c) {
			continue
		}
		// The rectangle only bounds the component's members; confirm with
		// them unless it lies inside R.
		if r.ContainsRect(cand.Box) {
			return true
		}
		for _, m := range e.prep.SpatialMembers(c) {
			if e.prep.Witness(m, r) {
				return true
			}
		}
	}
	return false
}

// MemoryBytes is the reach index plus the rectangle tree.
func (e *mbrSpaReach) MemoryBytes() int64 {
	return e.reach.MemoryBytes() + e.tree.MemoryBytes()
}
