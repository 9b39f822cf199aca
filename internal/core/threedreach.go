package core

import (
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/labeling"
	"repro/internal/tiles"
	"repro/internal/trace"
)

// ThreeDReach is the paper's primary contribution (§4.2): the geosocial
// network and its interval-based labeling are modeled inside a
// three-dimensional space whose first two dimensions are the original
// plane and whose third is the post-order domain. Every spatial vertex u
// becomes the 3D object (geometry(u), post(u)); a RangeReach(G, v, R)
// query becomes one 3D range query per label [l, h] ∈ L(v) — the cuboid
// with base R spanning [l, h] on the third axis. The query is positive
// iff some cuboid meets an object. This engine evaluates the union of
// the cuboids in a single walk of STR tiles in the plane whose cells
// keep their entries sorted along the post axis (tiles.Tiles.Any). A
// venue's geometry may be any rectangle (paper footnote 1): the tiles
// index each one exactly, so a hit is a witness.
//
// The paper uses post(u) only as the z of a spatial point, so a built
// engine keys its third axis by spatial rank instead (labeling.Options
// .Spatial): rank(c) is 1 plus the number of spatial components with a
// smaller post, L(c) holds the ranks of c's spatial descendants, and an
// entry's z is its component's rank. A run of user posts between two
// venue runs then costs no interval. The engine takes its keys from its
// labeling, so one read from a file written before ranks answers in
// post space through the same code.
type ThreeDReach struct {
	prep  *dataset.Prepared
	l     *labeling.Labeling
	tiles *tiles.Tiles
}

// NewThreeDReach builds the 3DReach engine over rank-keyed labels.
// opts.Parallelism parallelizes the labeling internally; the tiles
// depend on the labeling's keys, so the two phases chain rather than
// overlap.
func NewThreeDReach(prep *dataset.Prepared, opts BuildOptions) *ThreeDReach {
	t := opts.Span.Start()
	l := labeling.Build(prep.DAG, labeling.Options{Parallelism: opts.Parallelism, Spatial: prep.HasSpatial})
	opts.Span.End("labeling", t)
	return NewThreeDReachWithLabeling(prep, l, opts)
}

// NewThreeDReachWithLabeling builds the engine around an existing
// labeling of prep.DAG, keyed by post or by spatial rank over
// prep.HasSpatial; the tiles' z is whichever key the labeling has. The
// tiles are built from the network at a cost of the labeling's order:
// on the venue-heavy gowalla-like preset 1–1.5× the labeling (9–11
// against 7–9 ms at scale 2, 51–76 against 45–52 ms at scale 10, one
// worker, 2-CPU Xeon), on yelp-like, with few venues, a small fraction
// of it.
func NewThreeDReachWithLabeling(prep *dataset.Prepared, l *labeling.Labeling, opts BuildOptions) *ThreeDReach {
	t := opts.Span.Start()
	defer opts.Span.End("spatial", t)
	return &ThreeDReach{prep: prep, l: l, tiles: tiles.New(tileEntries(prep, l.Keys()))}
}

// tileEntries derives the tiles' entries: every spatial vertex once,
// its geometry at its component's key, id the vertex.
func tileEntries(prep *dataset.Prepared, keys []int32) []tiles.Entry {
	es := make([]tiles.Entry, 0, prep.Net.NumSpatial())
	for v, s := range prep.Net.Spatial {
		if s {
			es = append(es, tiles.Entry{Box: prep.Net.GeometryOf(v), Post: keys[prep.CompOf(v)], ID: int32(v)})
		}
	}
	return es
}

// Name implements Engine.
func (e *ThreeDReach) Name() string { return "3DReach" }

// RangeReach implements Engine: one walk of the tiles r meets for the
// whole label, stopping at the first witness.
func (e *ThreeDReach) RangeReach(v int, r geom.Rect) bool {
	return e.RangeReachTraced(v, r, nil)
}

// RangeReachTraced implements Engine: the label of the query vertex
// counts as inspected whole, and the 3D search accumulates index-node
// work into the spatial stage.
func (e *ThreeDReach) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	label := e.l.Label(int(e.prep.CompOf(v)))
	sp.AddLabels(len(label))
	t := sp.Start()
	hit := e.tiles.Any(r, label, nil, sp)
	sp.End(trace.StageSpatial, t)
	return hit
}

// MemoryBytes implements Engine: labeling plus the tiles.
func (e *ThreeDReach) MemoryBytes() int64 { return e.l.MemoryBytes() + e.tiles.MemoryBytes() }

// Labeling exposes the underlying labeling for stats reporting.
func (e *ThreeDReach) Labeling() *labeling.Labeling { return e.l }

var _ Engine = (*ThreeDReach)(nil)
