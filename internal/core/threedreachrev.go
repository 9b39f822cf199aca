package core

import (
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/labeling"
	"repro/internal/pool"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// ThreeDReachRev is the line-based 3DReach variant (paper §4.2, second
// half): it builds the *reversed* interval-based labeling — constructed
// by running the same algorithm on the network with all edges flipped —
// in which every label [l, h] ∈ L̄(u) covers post-order numbers of u's
// ancestors. A spatial vertex u is then modeled as a set of vertical 3D
// line segments, one per reversed label, and RangeReach(G, v, R) becomes
// a single 3D range query: the plane with base R at height post(v). The
// answer is positive iff the plane cuts a segment.
//
// A query reads post(v) and the segments, so that is all the engine
// keeps: the reversed labels live on only as the segments' z-ranges.
type ThreeDReachRev struct {
	prep *dataset.Prepared
	post []int32 // post-order number of each component in the reversed labeling
	tree *rtree.Flat[geom.Box3]
}

// NewThreeDReachRev builds the line-based 3DReach-Rev engine.
func NewThreeDReachRev(prep *dataset.Prepared, opts ThreeDOptions) *ThreeDReachRev {
	t := opts.Span.Start()
	rev := reversedLabeling(prep, opts.Parallelism)
	opts.Span.End("labeling", t)
	t = opts.Span.Start()
	defer opts.Span.End("spatial", t)
	// Segments and boxes are stored alike (min/max corners), matching the
	// paper's observation about Boost's R-tree (§6.2): no leaf-payload
	// override either way.
	tree := rtree.BulkLoadPool(revEntries(prep, rev), opts.Fanout, 0, pool.New(max(opts.Parallelism, 1)))
	return &ThreeDReachRev{prep: prep, post: rev.Post, tree: tree}
}

// reversedLabeling builds the labeling of the reversed condensed DAG
// over the default spanning forest. Its posts and labels depend on the
// network alone, not on the parallelism, so ValidateEngine rebuilds it
// to check a Rev against.
func reversedLabeling(prep *dataset.Prepared, parallelism int) *labeling.Labeling {
	return labeling.Build(prep.DAG.Reverse(), labeling.Options{Parallelism: parallelism})
}

// revEntries derives the tree's leaf entries from the reversed
// labeling: one per reversed label of each spatial vertex, id the
// vertex, spanning the label's posts in z.
func revEntries(prep *dataset.Prepared, rev *labeling.Labeling) []rtree.Entry[geom.Box3] {
	var entries []rtree.Entry[geom.Box3]
	for v, s := range prep.Net.Spatial {
		if !s {
			continue
		}
		// Vertical segment for point vertices; for extended geometries
		// (paper footnote 1) the segment widens to the box geometry ×
		// label range, still exact.
		g := prep.Net.GeometryOf(v)
		for _, iv := range rev.Labels[prep.CompOf(v)] {
			entries = append(entries, rtree.Entry[geom.Box3]{
				Box: geom.Box3FromRect(g, float64(iv.Lo), float64(iv.Hi)),
				ID:  int32(v),
			})
		}
	}
	return entries
}

// Name implements Engine.
func (e *ThreeDReachRev) Name() string { return "3DReach-Rev" }

// RangeReach implements Engine with a single plane-shaped 3D range query
// at the query vertex's post-order height.
func (e *ThreeDReachRev) RangeReach(v int, r geom.Rect) bool {
	return e.RangeReachTraced(v, r, nil)
}

// RangeReachTraced implements Engine: the single plane query is the
// spatial stage (3DReach-Rev inspects no label of the query vertex —
// the reversed labels live inside the indexed segments). Every segment
// is a spatial vertex's exact geometry, so a hit is a witness.
func (e *ThreeDReachRev) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	z := float64(e.post[e.prep.CompOf(v)])
	t := sp.Start()
	_, ok := e.tree.SearchAnyTraced(geom.Box3FromRect(r, z, z), sp)
	sp.End(trace.StageSpatial, t)
	return ok
}

// MemoryBytes implements Engine: 4 bytes of post per component plus the
// 3D R-tree.
func (e *ThreeDReachRev) MemoryBytes() int64 {
	return int64(4*len(e.post)) + e.tree.MemoryBytes()
}

var _ Engine = (*ThreeDReachRev)(nil)
