package core

import (
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/labeling"
	"repro/internal/tiles"
	"repro/internal/trace"
)

// ThreeDReachRev is the line-based 3DReach variant (paper §4.2, second
// half): it builds the *reversed* interval-based labeling — constructed
// by running the same algorithm on the network with all edges flipped —
// in which every label [l, h] ∈ L̄(u) covers post-order numbers of u's
// ancestors. A spatial vertex u is then modeled as a set of vertical
// line segments, one per reversed label, and RangeReach(G, v, R) becomes
// a single range query: the plane with base R at height post(v). The
// answer is positive iff the plane cuts a segment.
//
// The segments live in the tiles 3DReach uses (§7.2: any structure
// indexing that space will do). A segment is one entry, its venue's
// geometry keyed by its low end l; its high end h sits in a column in
// tile order. The plane at height z is then one walk of the tiles for
// the label [1, z] whose filter drops an entry with h < z.
//
// A query reads post(v), the tiles and the high ends, so that is all the
// engine keeps: the reversed labels live on only as the segments.
type ThreeDReachRev struct {
	prep  *dataset.Prepared
	post  []int32 // post-order number of each component in the reversed labeling
	tiles *tiles.Tiles
	hi    []int32 // high end of each tile entry's segment, in column order
}

// NewThreeDReachRev builds the line-based 3DReach-Rev engine.
func NewThreeDReachRev(prep *dataset.Prepared, opts BuildOptions) *ThreeDReachRev {
	t := opts.Span.Start()
	rev := reversedLabeling(prep, opts.Parallelism)
	opts.Span.End("labeling", t)
	t = opts.Span.Start()
	defer opts.Span.End("spatial", t)
	ts, hi := revSegments(prep, rev)
	return &ThreeDReachRev{prep: prep, post: rev.Post, tiles: ts, hi: hi}
}

// reversedLabeling builds the labeling of the reversed condensed DAG
// over the default spanning forest. Its posts and labels depend on the
// network alone, not on the parallelism, so ValidateEngine rebuilds it
// to check a Rev against.
func reversedLabeling(prep *dataset.Prepared, parallelism int) *labeling.Labeling {
	return labeling.Build(prep.DAG.Reverse(), labeling.Options{Parallelism: parallelism})
}

// revSegments derives the segments from the reversed labeling: one tile
// entry per reversed label [l, h] of each spatial vertex, its geometry
// (a point's, or an extent's, paper footnote 1) at key l, id the
// segment's ordinal so that ids stay distinct; and each entry's h, in
// column order. tiles.New is deterministic, so ValidateEngine compares a
// built engine with a rebuild column for column.
func revSegments(prep *dataset.Prepared, rev *labeling.Labeling) (*tiles.Tiles, []int32) {
	n := 0
	for v, s := range prep.Net.Spatial {
		if s {
			n += len(rev.Label(int(prep.CompOf(v))))
		}
	}
	es, his := make([]tiles.Entry, 0, n), make([]int32, 0, n)
	for v, s := range prep.Net.Spatial {
		if !s {
			continue
		}
		g := prep.Net.GeometryOf(v)
		for _, iv := range rev.Label(int(prep.CompOf(v))) {
			es = append(es, tiles.Entry{Box: g, Post: iv.Lo, ID: int32(len(es))})
			his = append(his, iv.Hi)
		}
	}
	ts := tiles.New(es)
	hi := make([]int32, n)
	for k, id := range ts.Columns().ID {
		hi[k] = his[id]
	}
	return ts, hi
}

// Name implements Engine.
func (e *ThreeDReachRev) Name() string { return "3DReach-Rev" }

// RangeReach implements Engine with a single plane query at the query
// vertex's post-order height.
func (e *ThreeDReachRev) RangeReach(v int, r geom.Rect) bool {
	return e.RangeReachTraced(v, r, nil)
}

// RangeReachTraced implements Engine: the single plane query is the
// spatial stage (3DReach-Rev inspects no label of the query vertex —
// the reversed labels live inside the indexed segments). Every segment
// is a spatial vertex's exact geometry, so a hit is a witness.
func (e *ThreeDReachRev) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	z, hi := e.post[e.prep.CompOf(v)], e.hi
	t := sp.Start()
	hit := e.tiles.Any(r, intervals.Set{{Lo: 1, Hi: z}}, func(k int) bool { return hi[k] < z }, sp)
	sp.End(trace.StageSpatial, t)
	return hit
}

// MemoryBytes implements Engine: 4 bytes of post per component, the
// tiles, and 4 bytes of high end per segment.
func (e *ThreeDReachRev) MemoryBytes() int64 {
	return int64(4*(len(e.post)+len(e.hi))) + e.tiles.MemoryBytes()
}

var _ Engine = (*ThreeDReachRev)(nil)
