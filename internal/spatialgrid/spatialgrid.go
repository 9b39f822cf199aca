// Package spatialgrid implements a uniform grid index over 3D points —
// the simplest space-oriented-partitioning structure (paper §7.2) and a
// second alternative backend for 3DReach's point index. Points are
// bucketed by (x, y, z) cell; range queries visit only the overlapping
// cells.
//
// The grid shines when queries are small relative to the cell size and
// degrades gracefully to a scan for huge queries — exactly the tradeoff
// the 3D-backend ablation quantifies against the R-tree and k-d tree.
package spatialgrid

import (
	"math"

	"repro/internal/geom"
	"repro/internal/trace"
)

// Point is an indexed 3D point with the caller's identifier.
type Point struct {
	X, Y, Z float64
	ID      int32
}

// Grid is a uniform 3D grid index. Build with New.
type Grid struct {
	min      [3]float64
	cellSize [3]float64
	cells    [3]int32
	buckets  [][]Point
	n        int
}

// New builds a grid over the points, sized so that the average bucket
// holds roughly targetPerCell points (default 8 when <= 0). Points
// outside no box exist — the grid bounds adapt to the data.
func New(pts []Point, targetPerCell int) *Grid {
	if targetPerCell <= 0 {
		targetPerCell = 8
	}
	g := &Grid{n: len(pts)}
	if len(pts) == 0 {
		g.cells = [3]int32{1, 1, 1}
		g.cellSize = [3]float64{1, 1, 1}
		g.buckets = make([][]Point, 1)
		return g
	}
	max := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	g.min = [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	for _, p := range pts {
		c := [3]float64{p.X, p.Y, p.Z}
		for d := 0; d < 3; d++ {
			g.min[d] = math.Min(g.min[d], c[d])
			max[d] = math.Max(max[d], c[d])
		}
	}
	// Cells per axis: cube root of the bucket count, clamped so axes
	// with zero extent collapse to one cell.
	bucketTarget := float64(len(pts))/float64(targetPerCell) + 1
	per := int32(math.Cbrt(bucketTarget)) + 1
	for d := 0; d < 3; d++ {
		extent := max[d] - g.min[d]
		if extent <= 0 {
			g.cells[d] = 1
			g.cellSize[d] = 1
			continue
		}
		g.cells[d] = per
		g.cellSize[d] = extent / float64(per)
	}
	g.buckets = make([][]Point, int(g.cells[0])*int(g.cells[1])*int(g.cells[2]))
	for _, p := range pts {
		g.buckets[g.bucketOf(p.X, p.Y, p.Z)] = append(g.buckets[g.bucketOf(p.X, p.Y, p.Z)], p)
	}
	return g
}

// cellIdx returns the clamped cell index of coordinate v along axis d.
func (g *Grid) cellIdx(v float64, d int) int32 {
	i := int32((v - g.min[d]) / g.cellSize[d])
	if i < 0 {
		return 0
	}
	if i >= g.cells[d] {
		return g.cells[d] - 1
	}
	return i
}

func (g *Grid) bucketOf(x, y, z float64) int {
	return int(g.cellIdx(x, 0))*int(g.cells[1])*int(g.cells[2]) +
		int(g.cellIdx(y, 1))*int(g.cells[2]) +
		int(g.cellIdx(z, 2))
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return g.n }

// Search calls fn for every point inside the box (boundary inclusive).
// If fn returns false the search stops and Search returns false.
func (g *Grid) Search(min, max [3]float64, fn func(p Point) bool) bool {
	return g.SearchTraced(min, max, nil, fn)
}

// SearchTraced is Search with instrumentation: every scanned bucket
// counts as an index leaf and every point compared against the box as a
// tested entry. A nil sp makes it exactly Search.
func (g *Grid) SearchTraced(min, max [3]float64, sp *trace.Span, fn func(p Point) bool) bool {
	if g.n == 0 {
		return true
	}
	x0, x1 := g.cellIdx(min[0], 0), g.cellIdx(max[0], 0)
	y0, y1 := g.cellIdx(min[1], 1), g.cellIdx(max[1], 1)
	z0, z1 := g.cellIdx(min[2], 2), g.cellIdx(max[2], 2)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			base := int(x)*int(g.cells[1])*int(g.cells[2]) + int(y)*int(g.cells[2])
			for z := z0; z <= z1; z++ {
				bucket := g.buckets[base+int(z)]
				sp.IncLeaf()
				sp.AddEntries(len(bucket))
				for _, p := range bucket {
					if p.X >= min[0] && p.X <= max[0] &&
						p.Y >= min[1] && p.Y <= max[1] &&
						p.Z >= min[2] && p.Z <= max[2] {
						if !fn(p) {
							return false
						}
					}
				}
			}
		}
	}
	return true
}

// SearchBox3Traced adapts SearchTraced to a geom.Box3 query.
func (g *Grid) SearchBox3Traced(q geom.Box3, sp *trace.Span, fn func(p Point) bool) bool {
	return g.SearchTraced(
		[3]float64{q.Min.X, q.Min.Y, q.Min.Z},
		[3]float64{q.Max.X, q.Max.Y, q.Max.Z}, sp, fn)
}

// Any reports whether some indexed point lies inside the box.
func (g *Grid) Any(min, max [3]float64) bool {
	return !g.Search(min, max, func(Point) bool { return false })
}

// MemoryBytes returns the index footprint: points plus bucket headers.
func (g *Grid) MemoryBytes() int64 {
	return int64(g.n)*28 + int64(len(g.buckets))*24
}
