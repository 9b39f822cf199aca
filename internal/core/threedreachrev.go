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
type ThreeDReachRev struct {
	prep   *dataset.Prepared
	policy dataset.SCCPolicy
	rev    *labeling.Labeling // labeling of the reversed condensed DAG
	tree   *rtree.Flat[geom.Box3]
}

// NewThreeDReachRev builds the line-based 3DReach-Rev engine.
func NewThreeDReachRev(prep *dataset.Prepared, opts ThreeDOptions) *ThreeDReachRev {
	t := opts.Span.Start()
	rev := labeling.Build(prep.DAG.Reverse(), labeling.Options{Forest: opts.Forest, Parallelism: opts.Parallelism})
	opts.Span.End("labeling", t)
	e := &ThreeDReachRev{prep: prep, policy: opts.Policy, rev: rev}
	t = opts.Span.Start()
	defer opts.Span.End("spatial", t)

	var entries []rtree.Entry[geom.Box3]
	if opts.Policy == dataset.MBR {
		for c := range prep.Members {
			if !prep.HasSpatial[c] {
				continue
			}
			for _, iv := range rev.Labels[c] {
				entries = append(entries, rtree.Entry[geom.Box3]{
					Box: geom.Box3FromRect(prep.CompMBR[c], float64(iv.Lo), float64(iv.Hi)),
					ID:  int32(c),
				})
			}
		}
	} else {
		for v, s := range prep.Net.Spatial {
			if !s {
				continue
			}
			c := prep.CompOf(v)
			// Vertical segment for point vertices; for extended
			// geometries (paper footnote 1) the segment widens to the
			// box geometry × label range, still exact.
			g := prep.Net.GeometryOf(v)
			for _, iv := range rev.Labels[c] {
				entries = append(entries, rtree.Entry[geom.Box3]{
					Box: geom.Box3FromRect(g, float64(iv.Lo), float64(iv.Hi)),
					ID:  int32(v),
				})
			}
		}
	}
	// Segments and boxes are stored alike (min/max corners), matching the
	// paper's observation about Boost's R-tree (§6.2): no leaf-payload
	// override either way.
	e.tree = rtree.BulkLoadPool(entries, opts.Fanout, 0, pool.New(max(opts.Parallelism, 1)))
	return e
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
// the reversed labels live inside the indexed segments); MBR member
// confirmations count as member verifications.
func (e *ThreeDReachRev) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	src := int(e.prep.CompOf(v))
	z := float64(e.rev.PostOf(src))
	q := geom.Box3FromRect(r, z, z)
	if e.policy == dataset.Replicate {
		t := sp.Start()
		_, ok := e.tree.SearchAnyTraced(q, sp)
		sp.End(trace.StageSpatial, t)
		return ok
	}
	hit := false
	t := sp.Start()
	e.tree.SearchTraced(q, sp, func(entry rtree.Entry[geom.Box3]) bool {
		if r.ContainsRect(entry.Box.Rect()) {
			hit = true
			return false
		}
		for _, m := range e.prep.SpatialMembers[entry.ID] {
			sp.IncMember()
			if e.prep.Witness(m, r) {
				hit = true
				return false
			}
		}
		return true
	})
	sp.End(trace.StageSpatial, t)
	return hit
}

// MemoryBytes implements Engine: reversed labeling plus 3D R-tree.
func (e *ThreeDReachRev) MemoryBytes() int64 {
	return e.rev.MemoryBytes() + e.tree.MemoryBytes()
}

// Labeling exposes the reversed labeling for stats reporting (Table 6's
// "reversed" columns).
func (e *ThreeDReachRev) Labeling() *labeling.Labeling { return e.rev }

var _ Engine = (*ThreeDReachRev)(nil)
