package core

import (
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/labeling"
	"repro/internal/pool"
	"repro/internal/rtree"
	"repro/internal/tiles"
	"repro/internal/trace"
)

// ThreeDReach is the paper's primary contribution (§4.2): the geosocial
// network and its interval-based labeling are modeled inside a
// three-dimensional space whose first two dimensions are the original
// plane and whose third is the post-order domain. Every spatial vertex u
// becomes the 3D point (u.x, u.y, post(u)); a RangeReach(G, v, R) query
// becomes one 3D range query per label [l, h] ∈ L(v) — the cuboid with
// base R spanning [l, h] on the third axis. The query is positive iff
// some cuboid contains a point. This engine evaluates the union of the
// cuboids in a single search (see witness), over STR tiles in the plane
// whose cells keep their points sorted along the post axis.
//
// The paper uses post(u) only as the z of a spatial point, so a built
// engine keys its third axis by spatial rank instead (labeling.Options
// .Spatial): rank(c) is 1 plus the number of spatial components with a
// smaller post, L(c) holds the ranks of c's spatial descendants, and a
// point's or box's z is its component's rank. A run of user posts
// between two venue runs then costs no interval. The engine takes its
// keys from its labeling, so one read from a file written before ranks
// answers in post space through the same code.
type ThreeDReach struct {
	prep *dataset.Prepared
	l    *labeling.Labeling

	// Exactly one is set. points indexes a point-only network; boxes
	// indexes a network with extended geometries (paper footnote 1),
	// whose objects are boxes, in the R-tree: one exact box per spatial
	// vertex, so a hit is a witness.
	points *tiles.Tiles
	boxes  *rtree.Flat[geom.Box3]
}

// ThreeDOptions configures NewThreeDReach and NewThreeDReachRev. Both
// index the Replicate policy only: the MBR policy is SpaReach's.
type ThreeDOptions struct {
	// Fanout is the fan-out of the R-trees: extended geometries' and
	// 3DReach-Rev's (0 = rtree.DefaultMaxEntries).
	Fanout int
	// Parallelism bounds the build workers: 0 or 1 builds sequentially,
	// n > 1 parallelizes the labeling and the R-tree bulk loads
	// internally. The 3D index depends on the labeling's post-order
	// numbers, so the two phases chain rather than overlap. The built
	// engine is identical at any setting.
	Parallelism int
	// Span, when non-nil, accumulates named per-phase build durations.
	Span *trace.BuildSpan
}

// NewThreeDReach builds the point-based 3DReach engine over rank-keyed
// labels.
func NewThreeDReach(prep *dataset.Prepared, opts ThreeDOptions) *ThreeDReach {
	t := opts.Span.Start()
	l := labeling.Build(prep.DAG, labeling.Options{Parallelism: opts.Parallelism, Spatial: prep.HasSpatial})
	opts.Span.End("labeling", t)
	return NewThreeDReachWithLabeling(prep, l, opts)
}

// NewThreeDReachWithLabeling builds the engine around an existing
// labeling of prep.DAG, keyed by post or by spatial rank over
// prep.HasSpatial; the index's z is whichever key the labeling has. The
// spatial index is built from the network, which is cheap relative to
// labeling construction.
func NewThreeDReachWithLabeling(prep *dataset.Prepared, l *labeling.Labeling, opts ThreeDOptions) *ThreeDReach {
	e := &ThreeDReach{prep: prep, l: l}
	t := opts.Span.Start()
	defer opts.Span.End("spatial", t)
	keys := l.Keys()

	if prep.Net.HasExtents() {
		e.boxes = rtree.BulkLoadPool(boxEntries(prep, keys), opts.Fanout, 0, pool.New(max(opts.Parallelism, 1)))
		return e
	}

	var pts []tiles.Point
	for v, s := range prep.Net.Spatial {
		if s {
			p := prep.Net.Points[v]
			pts = append(pts, tiles.Point{X: p.X, Y: p.Y, Post: keys[prep.CompOf(v)], ID: int32(v)})
		}
	}
	e.points = tiles.New(pts)
	return e
}

// boxEntries derives the box tree's leaf entries: every spatial vertex
// once, its geometry lifted to its component's key, id the vertex.
func boxEntries(prep *dataset.Prepared, keys []int32) []rtree.Entry[geom.Box3] {
	var entries []rtree.Entry[geom.Box3]
	for v, s := range prep.Net.Spatial {
		if s {
			z := float64(keys[prep.CompOf(v)])
			entries = append(entries, rtree.Entry[geom.Box3]{
				Box: geom.Box3FromRect(prep.Net.GeometryOf(v), z, z),
				ID:  int32(v),
			})
		}
	}
	return entries
}

// Name implements Engine.
func (e *ThreeDReach) Name() string { return "3DReach" }

// RangeReach implements Engine: one 3D search for the whole label,
// stopping at the first witness.
func (e *ThreeDReach) RangeReach(v int, r geom.Rect) bool {
	return e.RangeReachTraced(v, r, nil)
}

// RangeReachTraced implements Engine: the label of the query vertex
// counts as inspected whole, and the 3D search accumulates index-node
// work into the spatial stage.
func (e *ThreeDReach) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	label := e.l.Labels[e.prep.CompOf(v)]
	sp.AddLabels(len(label))
	t := sp.Start()
	hit := e.witness(r, label, sp)
	sp.End(trace.StageSpatial, t)
	return hit
}

// witness reports whether the index holds an object inside r × some
// interval of label. Over points, that is one walk of the tiles r
// meets, joining each cell's posts with the label (tiles.Tiles.Any).
// Over boxes, a one-interval label is the paper's single cuboid query;
// a longer one is not the paper's loop of cuboid queries, which
// re-descends the tree once per interval, but one traversal that
// expands the union of the nodes those queries would, each once (see
// anyInLabel). Every box is exact, so a hit is a witness.
func (e *ThreeDReach) witness(r geom.Rect, label intervals.Set, sp *trace.Span) bool {
	if e.points != nil {
		return e.points.Any(r, label, nil, sp)
	}
	if len(label) == 1 {
		_, ok := e.boxes.SearchAnyTraced(geom.Box3FromRect(r, float64(label[0].Lo), float64(label[0].Hi)), sp)
		return ok
	}
	return anyInLabel(e.boxes, r, label, sp)
}

// anyInLabel reports whether t holds an entry inside r × some interval
// of label, in one traversal that expands a node only where its
// rectangle meets r and its z-range overlaps the label: the union of
// the cuboids 3DReach queries for L(v) (paper §4.2), tested in
// O(log |label|) on node bounds and entries alike. Entry z is a
// post-order number (or rank) and node bounds are unions of entries, so
// the float z bounds convert exactly.
func anyInLabel(t *rtree.Flat[geom.Box3], r geom.Rect, label intervals.Set, sp *trace.Span) bool {
	return t.SearchAnyWhere(sp, func(b *geom.Box3) bool {
		return b.Rect().Intersects(r) && label.OverlapsCanonical(int32(b.Min.Z), int32(b.Max.Z))
	})
}

// MemoryBytes implements Engine: labeling plus the spatial index.
func (e *ThreeDReach) MemoryBytes() int64 {
	total := e.l.MemoryBytes()
	if e.points != nil {
		total += e.points.MemoryBytes()
	} else {
		total += e.boxes.MemoryBytes()
	}
	return total
}

// Labeling exposes the underlying labeling for stats reporting.
func (e *ThreeDReach) Labeling() *labeling.Labeling { return e.l }

var _ Engine = (*ThreeDReach)(nil)
