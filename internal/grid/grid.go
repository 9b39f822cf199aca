// Package grid implements the hierarchical space partitioning behind
// GeoReach's SPA-Graph (paper §2.2.2): a quad-hierarchy of grid levels
// where level 0 is the most detailed partitioning and every four sibling
// cells of level l merge into one cell of level l+1.
package grid

import (
	"fmt"

	"repro/internal/geom"
)

// Cell identifies one grid cell: a level and the (X, Y) position of the
// cell within that level's regular grid. Level 0 is the finest level.
type Cell struct {
	Level uint8
	X, Y  int32
}

// Key packs a cell into a comparable 64-bit value usable as a map key and
// for compact ReachGrid storage.
func (c Cell) Key() uint64 {
	return uint64(c.Level)<<56 | uint64(uint32(c.X))<<28 | uint64(uint32(c.Y))
}

// CellFromKey unpacks a Key back into a Cell.
func CellFromKey(k uint64) Cell {
	return Cell{
		Level: uint8(k >> 56),
		X:     int32((k >> 28) & 0xFFFFFFF),
		Y:     int32(k & 0xFFFFFFF),
	}
}

// String implements fmt.Stringer.
func (c Cell) String() string { return fmt.Sprintf("L%d(%d,%d)", c.Level, c.X, c.Y) }

// Hierarchy is a quad-hierarchy over a rectangular space. Level l splits
// the space into 2^(Top-l) cells per axis, so level Top is a single cell
// covering everything and level 0 holds 4^Top cells.
type Hierarchy struct {
	space geom.Rect
	top   uint8
}

// NewHierarchy returns a hierarchy over space with the given number of
// levels (top = levels-1). levels must be in [1, 20]; level 0 then has
// 2^(levels-1) cells per axis.
func NewHierarchy(space geom.Rect, levels int) *Hierarchy {
	if levels < 1 || levels > 20 {
		panic(fmt.Sprintf("grid: levels %d out of range [1,20]", levels))
	}
	if !space.Valid() {
		space = geom.NewRect(-0.5, -0.5, 0.5, 0.5)
	} else {
		// Inflate only degenerate axes (collinear or identical points):
		// the surviving extent must stay intact so every point of the
		// space remains inside the hierarchy and CellAt never clamps a
		// real point into the wrong cell.
		if space.Width() == 0 {
			space.Min.X -= 0.5
			space.Max.X += 0.5
		}
		if space.Height() == 0 {
			space.Min.Y -= 0.5
			space.Max.Y += 0.5
		}
	}
	return &Hierarchy{space: space, top: uint8(levels - 1)}
}

// Space returns the rectangle the hierarchy partitions.
func (h *Hierarchy) Space() geom.Rect { return h.space }

// Levels returns the number of levels.
func (h *Hierarchy) Levels() int { return int(h.top) + 1 }

// SideCells returns the number of cells per axis at the given level.
func (h *Hierarchy) SideCells(level uint8) int32 { return 1 << (h.top - level) }

// CellAt returns the level-l cell containing p. Points outside the space
// are clamped to the boundary cells.
func (h *Hierarchy) CellAt(p geom.Point, level uint8) Cell {
	side := h.SideCells(level)
	fx := (p.X - h.space.Min.X) / h.space.Width() * float64(side)
	fy := (p.Y - h.space.Min.Y) / h.space.Height() * float64(side)
	x := clamp(int32(fx), 0, side-1)
	y := clamp(int32(fy), 0, side-1)
	return Cell{Level: level, X: x, Y: y}
}

func clamp(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Rect returns the spatial extent of cell c.
func (h *Hierarchy) Rect(c Cell) geom.Rect {
	side := float64(h.SideCells(c.Level))
	w := h.space.Width() / side
	ht := h.space.Height() / side
	minX := h.space.Min.X + float64(c.X)*w
	minY := h.space.Min.Y + float64(c.Y)*ht
	return geom.Rect{
		Min: geom.Pt(minX, minY),
		Max: geom.Pt(minX+w, minY+ht),
	}
}

// CoverRect calls fn for every level-l cell intersecting r (clamped to
// the space). GeoReach uses it to seed ReachGrids from spatial vertices
// with rectangular extents (paper footnote 1).
func (h *Hierarchy) CoverRect(r geom.Rect, level uint8, fn func(Cell)) {
	lo := h.CellAt(r.Min, level)
	hi := h.CellAt(r.Max, level)
	for x := lo.X; x <= hi.X; x++ {
		for y := lo.Y; y <= hi.Y; y++ {
			fn(Cell{Level: level, X: x, Y: y})
		}
	}
}

// Parent returns the cell of the next coarser level containing c, and
// false if c is already at the top level.
func (h *Hierarchy) Parent(c Cell) (Cell, bool) {
	if c.Level >= h.top {
		return Cell{}, false
	}
	return Cell{Level: c.Level + 1, X: c.X / 2, Y: c.Y / 2}, true
}

// CellSet is a set of grid cells keyed by Cell.Key: a ReachGrid while
// GeoReach's build is still unioning successors into it (the finished
// index holds each one as a sorted run of keys instead).
type CellSet map[uint64]struct{}

// Add inserts c into the set.
func (s CellSet) Add(c Cell) { s[c.Key()] = struct{}{} }

// Has reports whether c is in the set.
func (s CellSet) Has(c Cell) bool {
	_, ok := s[c.Key()]
	return ok
}

// Len returns the number of cells.
func (s CellSet) Len() int { return len(s) }

// UnionWith adds every cell of other to s.
func (s CellSet) UnionWith(other CellSet) {
	for k := range other {
		s[k] = struct{}{}
	}
}

// Merge applies GeoReach's MERGE_COUNT rule to s in place: starting from
// level 0, whenever more than mergeCount sibling quad-cells (children of
// the same parent) are present at a level, they are replaced by their
// parent cell on the next level. The invariant that every stored cell
// contains at least one reachable spatial vertex is preserved, because a
// parent cell covers its children.
func (s CellSet) Merge(h *Hierarchy, mergeCount int) {
	if mergeCount <= 0 {
		mergeCount = 1
	}
	for level := uint8(0); level < h.top; level++ {
		siblings := make(map[uint64][]uint64) // parent key -> child keys present
		for k := range s {
			c := CellFromKey(k)
			if c.Level != level {
				continue
			}
			p, ok := h.Parent(c)
			if !ok {
				continue
			}
			siblings[p.Key()] = append(siblings[p.Key()], k)
		}
		for pk, kids := range siblings {
			if len(kids) > mergeCount {
				for _, k := range kids {
					delete(s, k)
				}
				s[pk] = struct{}{}
			}
		}
	}
	// Absorb any cell covered by a coarser cell also in the set.
	for k := range s {
		c := CellFromKey(k)
		for {
			p, ok := h.Parent(c)
			if !ok {
				break
			}
			if s.Has(p) {
				delete(s, k)
				break
			}
			c = p
		}
	}
}
