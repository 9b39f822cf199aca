// Package core implements the RangeReach evaluation methods of the paper:
//
//   - SpaReach-BFL and SpaReach-INT — the spatial-first baselines (§2.2.1):
//     a 2D R-tree finds the spatial vertices inside the query region, then
//     a reachability index (BFL or interval labels) probes each candidate;
//   - GeoReach — the prior state of the art (§2.2.2), wrapped from
//     internal/georeach;
//   - SocReach — the social-first method (§4.1): interval labels enumerate
//     the descendants of the query vertex, which are then tested against
//     the region;
//   - 3DReach — the point-based 3D transformation (§4.2): one 3D range
//     query (cuboid) per label of the query vertex over the (x, y, post)
//     points, answered as one walk of STR tiles in the plane whose cells
//     keep their points sorted by post (internal/tiles); the built engine
//     keys that axis by spatial rank, which stores only what a query can
//     ask;
//   - 3DReach-Rev — the line-based variant (§4.2): spatial vertices become
//     vertical segments from the reversed labeling and a query is a single
//     plane-shaped 3D range query at post(v).
//
// Every engine answers queries on the SCC-condensed network (paper §5)
// under the Replicate spatial policy, the SpaReach methods also under
// MBR, and is verified against the NaiveBFS ground truth in the package
// tests.
package core

import (
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/trace"
)

// Engine answers RangeReach queries over a prepared geosocial network.
type Engine interface {
	// Name returns the method name as used in the paper's plots.
	Name() string
	// RangeReach reports whether the original vertex v can reach a
	// spatial vertex whose point lies inside r.
	RangeReach(v int, r geom.Rect) bool
	// RangeReachTraced is RangeReach with per-stage instrumentation
	// accumulated into sp. A nil sp must behave exactly like RangeReach
	// — implementations thread the span down through nil-safe hooks, so
	// the disabled path costs nothing beyond predictable branches.
	RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool
	// MemoryBytes returns the footprint of the engine's index
	// structures (Table 4 accounting). The underlying network and its
	// condensation are shared by all engines and not counted.
	MemoryBytes() int64
}

// reachIndex is the reachability-index shape shared by bfl.Index and
// labeling.Labeling.
type reachIndex interface {
	Reach(v, u int) bool
	MemoryBytes() int64
}

// tracedReach is the optional traced-probe extension of reachIndex;
// bfl.Index and labeling.Labeling implement it, the PLL probe falls
// back to plain Reach.
type tracedReach interface {
	ReachTraced(v, u int, sp *trace.Span) bool
}

// NaiveBFS is the index-free ground truth: breadth-first search over the
// original network, testing every visited spatial vertex against the
// region. Tests compare every engine against it.
type NaiveBFS struct {
	net *dataset.Network
}

// NewNaiveBFS returns the ground-truth engine for net.
func NewNaiveBFS(net *dataset.Network) *NaiveBFS {
	return &NaiveBFS{net: net}
}

// Name implements Engine.
func (e *NaiveBFS) Name() string { return "NaiveBFS" }

// RangeReach implements Engine by plain BFS. A spatial vertex witnesses
// the query when its geometry intersects the region (point containment
// for point vertices).
func (e *NaiveBFS) RangeReach(v int, r geom.Rect) bool {
	return e.RangeReachTraced(v, r, nil)
}

// RangeReachTraced implements Engine: every BFS-expanded vertex counts
// as a visited graph vertex, every spatial vertex's geometry test as a
// member verification, and the whole search as the traverse stage.
func (e *NaiveBFS) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	found := false
	t := sp.Start()
	e.net.Graph.BFS(v, func(u int) bool {
		sp.IncGraphVisited()
		if e.net.Spatial[u] {
			sp.IncMember()
			if r.Intersects(e.net.GeometryOf(u)) {
				found = true
				return false
			}
		}
		return true
	})
	sp.End(trace.StageTraverse, t)
	return found
}

// MemoryBytes implements Engine; the ground truth stores nothing.
func (e *NaiveBFS) MemoryBytes() int64 { return 0 }
