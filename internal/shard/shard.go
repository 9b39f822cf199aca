// Package shard partitions a geosocial network for distributed serving.
//
// The partitioning model keeps RangeReach answers exact under fan-out:
// every shard holds the full social graph with the network's global
// vertex ids, but only the venues assigned to it remain spatial. Since
// RangeReach(v, R) asks whether v reaches ANY spatial vertex inside R,
// and the shards' venue sets partition the network's venue set,
//
//	RangeReach(v, R)  ==  OR over shards i of RangeReach_i(v, R)
//
// holds for any assignment of venues to shards — the router tier
// (internal/router) needs no vertex translation and can OR-combine
// shard answers with early exit on the first positive. A shard with no
// venue in R answers negatively, so the router need not ask it: each
// shard's entry in the Map carries its venue bounds and a 64×64
// occupancy bitmap over the network's space (grid.Uniform), and a
// region that misses either is pruned.
//
// The partitioner is Spatial: venues are sorted along a Z-order
// (Morton) curve over the level-0 cells of a grid.Hierarchy — the same
// quad-hierarchy GeoReach's SPA-Graph partitions the space with — and
// split into contiguous runs of equal venue count. Contiguous Z-order
// runs correspond to unions of quad-tree subtrees, so each shard covers
// a compact region and most query regions meet few shards' cells.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
)

// Strategy selects the venue-assignment rule. Spatial is the only one.
type Strategy int

// Spatial assigns venues by grid-hierarchy Z-order runs.
const Spatial Strategy = 0

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == Spatial {
		return "spatial"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Info describes one shard of an Assignment.
type Info struct {
	// ID is the shard's index in [0, NumShards).
	ID int
	// Venues counts the spatial vertices assigned to the shard.
	Venues int
	// Bounds is the minimum bounding rectangle of the shard's venue
	// geometries; the empty rectangle when the shard holds no venues.
	// A query region that does not intersect Bounds cannot be answered
	// positively by this shard.
	Bounds geom.Rect
	// Cells marks every cell of the Assignment's grid (grid.Uniform over
	// Space) that one of the shard's venue geometries meets. A query
	// region that meets no marked cell cannot be answered positively by
	// this shard either.
	Cells grid.Bitmap
}

// Assignment is a complete venue partitioning of a network.
type Assignment struct {
	// Strategy that produced the assignment.
	Strategy Strategy
	// NumShards is the shard count n.
	NumShards int
	// ShardOf maps every vertex to the shard owning it as a venue, or
	// -1 for social (non-spatial) vertices, which are replicated on
	// every shard.
	ShardOf []int32
	// Shards holds per-shard summaries, indexed by shard id.
	Shards []Info
	// Space is the bounding rectangle of the network's venues, the space
	// the shards' Cells are gridded over.
	Space geom.Rect
}

// zorderLevel is the hierarchy level venues are linearized at: 512
// cells per axis resolves far below any realistic shard granularity.
const zorderLevel = 10

// Partition assigns the venues of net to n shards under the given
// strategy, which must be Spatial. The assignment is deterministic for
// a given network.
func Partition(net *dataset.Network, n int, strategy Strategy) (*Assignment, error) {
	if strategy != Spatial {
		return nil, fmt.Errorf("shard: unknown strategy %v (want spatial)", strategy)
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	venues := make([]int32, 0, net.NumSpatial())
	for v, s := range net.Spatial {
		if s {
			venues = append(venues, int32(v))
		}
	}
	if len(venues) == 0 {
		return nil, fmt.Errorf("shard: network %q has no spatial vertices to partition", net.Name)
	}
	a := &Assignment{
		Strategy:  strategy,
		NumShards: n,
		ShardOf:   make([]int32, net.NumVertices()),
		Shards:    make([]Info, n),
		Space:     net.Space(), // O(|V|): computed once
	}
	for i := range a.ShardOf {
		a.ShardOf[i] = -1
	}
	for i := range a.Shards {
		a.Shards[i] = Info{ID: i, Bounds: geom.EmptyRect()}
	}
	partitionSpatial(net, venues, a)
	u := grid.NewUniform(a.Space)
	for _, v := range venues {
		s, g := &a.Shards[a.ShardOf[v]], net.GeometryOf(int(v))
		s.Venues++
		s.Bounds = s.Bounds.Union(g)
		s.Cells.Mark(u, g)
	}
	return a, nil
}

// partitionSpatial sorts venues along the Z-order curve of their
// level-zorderLevel grid cell and cuts the sequence into n runs of
// near-equal venue count (sizes differ by at most one).
func partitionSpatial(net *dataset.Network, venues []int32, a *Assignment) {
	h := grid.NewHierarchy(a.Space, zorderLevel+1)
	keys := make([]uint64, len(venues))
	for i, v := range venues {
		c := h.CellAt(net.Points[v], 0)
		keys[i] = morton(uint32(c.X), uint32(c.Y))
	}
	order := make([]int, len(venues))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if keys[order[i]] != keys[order[j]] {
			return keys[order[i]] < keys[order[j]]
		}
		return venues[order[i]] < venues[order[j]]
	})
	n := a.NumShards
	base, extra := len(venues)/n, len(venues)%n
	pos := 0
	for s := 0; s < n; s++ {
		size := base
		if s < extra {
			size++
		}
		for k := 0; k < size; k++ {
			a.ShardOf[venues[order[pos]]] = int32(s)
			pos++
		}
	}
}

// morton interleaves the low 16 bits of x and y into a Z-order key.
func morton(x, y uint32) uint64 {
	return spread(x) | spread(y)<<1
}

// spread distributes the low 16 bits of v into the even bit positions.
func spread(v uint32) uint64 {
	x := uint64(v & 0xFFFF)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// ShardNetwork derives shard i's serving network: the full graph and
// vertex id space of net, with only shard-i venues spatial. The graph
// and point slices are shared with net (both are read-only after
// construction); the spatial mask and extents are copies.
func (a *Assignment) ShardNetwork(net *dataset.Network, i int) (*dataset.Network, error) {
	if i < 0 || i >= a.NumShards {
		return nil, fmt.Errorf("shard: shard %d out of range [0,%d)", i, a.NumShards)
	}
	if len(a.ShardOf) != net.NumVertices() {
		return nil, fmt.Errorf("shard: assignment over %d vertices applied to network with %d", len(a.ShardOf), net.NumVertices())
	}
	spatial := make([]bool, net.NumVertices())
	var extents []geom.Rect
	if net.Extents != nil {
		extents = make([]geom.Rect, net.NumVertices())
	}
	for v := range spatial {
		if net.Spatial[v] && a.ShardOf[v] == int32(i) {
			spatial[v] = true
			if extents != nil {
				extents[v] = net.Extents[v]
			}
		}
	}
	return &dataset.Network{
		Name:     fmt.Sprintf("%s/shard%d-of-%d", net.Name, i, a.NumShards),
		Graph:    net.Graph,
		Spatial:  spatial,
		Points:   net.Points,
		Extents:  extents,
		Checkins: net.Checkins,
	}, nil
}
