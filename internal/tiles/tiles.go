// Package tiles is 3DReach's point index: STR tiles in the plane, with
// each tile's points sorted by post-order number. The paper (§4.2)
// answers a label L(v) with one cuboid query per interval on a 3D
// R-tree of (x, y, post) points, and notes (§7.2) that any structure
// indexing that space will do. This one partitions the plane the way
// GeoReach does and keeps the third axis inside the cells, so a query
// prunes by region first and merge-joins each cell's posts with the
// label after: a one-interval label (a giant component's) costs a
// bounds check or two binary searches per cell, a fragmented one a
// merge join, and an empty region never expands the post axis.
//
// Layout (Sort-Tile-Recursive in 2D): the points are sorted by x and
// cut into ⌈√(P/CellSize)⌉ slabs of equal count; each slab is sorted by
// y and cut into cells of CellSize points; each cell's points are
// sorted by post. The result is eight flat columns (see Columns), the
// form the flat index format persists and a mapped index overlays.
package tiles

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/trace"
)

// CellSize is the number of points in a full cell.
const CellSize = 32

// Point is one indexed spatial vertex: its location, its component's
// key on the label axis — the post-order number, or the spatial rank of
// a rank-keyed labeling; the tiles only need the labels to agree — and
// its vertex id.
type Point struct {
	X, Y     float64
	Post, ID int32
}

// Columns are the tiles' arrays. With S slabs, C cells and P points:
//
//	SlabX      [2S] f64 — per slab {min x, max x}
//	SlabCells  [S+1] u32 — cell offsets: slab s holds cells SlabCells[s]..SlabCells[s+1]-1
//	CellMBR    [4C] f64 — per cell {min x, min y, max x, max y}
//	CellPoints [C+1] u32 — point offsets, as SlabCells
//	X, Y       [P] f64 — point coordinates
//	Post, ID   [P] i32 — post-order number and vertex id
type Columns struct {
	SlabX      []float64
	SlabCells  []uint32
	CellMBR    []float64
	CellPoints []uint32
	X, Y       []float64
	Post, ID   []int32
}

// Tiles is the built or loaded index. It is immutable, so any number of
// readers may share it.
type Tiles struct {
	c Columns
}

// New builds the tiles over pts, which it reorders. Every comparison
// ends in the vertex id, so equal point sets give byte-identical columns
// whatever their input order; ids must be distinct.
func New(pts []Point) *Tiles {
	// Each order is decided by its first key unless that ties (or is
	// NaN, which cmp.Compare places first); the fallback is the whole
	// comparison.
	byX := func(a, b Point) int {
		if a.X < b.X {
			return -1
		} else if a.X > b.X {
			return 1
		}
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.Post, b.Post), cmp.Compare(a.ID, b.ID))
	}
	byY := func(a, b Point) int {
		if a.Y < b.Y {
			return -1
		} else if a.Y > b.Y {
			return 1
		}
		return cmp.Or(cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X), cmp.Compare(a.Post, b.Post), cmp.Compare(a.ID, b.ID))
	}
	byPost := func(a, b Point) int {
		return cmp.Or(cmp.Compare(a.Post, b.Post), cmp.Compare(a.ID, b.ID))
	}

	n := len(pts)
	cells := (n + CellSize - 1) / CellSize
	c := Columns{
		SlabCells:  []uint32{0},
		CellMBR:    make([]float64, 0, 4*cells),
		CellPoints: make([]uint32, 1, cells+1),
		X:          make([]float64, 0, n),
		Y:          make([]float64, 0, n),
		Post:       make([]int32, 0, n),
		ID:         make([]int32, 0, n),
	}
	if n == 0 {
		return &Tiles{c}
	}
	slices.SortFunc(pts, byX)
	slabs := int(math.Ceil(math.Sqrt(float64(n) / CellSize)))
	per := (n + slabs - 1) / slabs
	for lo := 0; lo < n; lo += per {
		slab := pts[lo:min(lo+per, n)]
		c.SlabX = append(c.SlabX, slab[0].X, slab[len(slab)-1].X)
		slices.SortFunc(slab, byY)
		for at := 0; at < len(slab); at += CellSize {
			cell := slab[at:min(at+CellSize, len(slab))]
			minX, maxX := cell[0].X, cell[0].X
			for _, p := range cell[1:] {
				minX, maxX = min(minX, p.X), max(maxX, p.X)
			}
			c.CellMBR = append(c.CellMBR, minX, cell[0].Y, maxX, cell[len(cell)-1].Y)
			slices.SortFunc(cell, byPost)
			for _, p := range cell {
				c.X, c.Y = append(c.X, p.X), append(c.Y, p.Y)
				c.Post, c.ID = append(c.Post, p.Post), append(c.ID, p.ID)
			}
			c.CellPoints = append(c.CellPoints, uint32(len(c.X)))
		}
		c.SlabCells = append(c.SlabCells, uint32(len(c.CellPoints)-1))
	}
	return &Tiles{c}
}

// FromColumns assembles tiles from persisted columns. It checks, in one
// pass and without allocating, everything a query's indexing relies on:
// the column lengths agree, both offset columns start at 0, rise
// strictly (no empty slab or cell) and end at the next level's length,
// and every id lies in [0, numIDs). Geometry and post order, which only
// decide answers, are left to Validate.
func FromColumns(c Columns, numIDs int) (*Tiles, error) {
	if len(c.SlabX)%2 != 0 || len(c.CellMBR)%4 != 0 {
		return nil, fmt.Errorf("tiles: %d slab bounds, %d cell bounds: not whole records", len(c.SlabX), len(c.CellMBR))
	}
	if err := checkOffsets("slab cell", c.SlabCells, len(c.SlabX)/2, len(c.CellMBR)/4); err != nil {
		return nil, err
	}
	n := len(c.X)
	if err := checkOffsets("cell point", c.CellPoints, len(c.CellMBR)/4, n); err != nil {
		return nil, err
	}
	if len(c.Y) != n || len(c.Post) != n || len(c.ID) != n {
		return nil, fmt.Errorf("tiles: point columns of %d x, %d y, %d post, %d id", n, len(c.Y), len(c.Post), len(c.ID))
	}
	for k, id := range c.ID {
		if id < 0 || int(id) >= numIDs {
			return nil, fmt.Errorf("tiles: point %d has id %d outside [0,%d)", k, id, numIDs)
		}
	}
	return &Tiles{c}, nil
}

// checkOffsets checks that off holds count+1 strictly rising offsets
// from 0 to total.
func checkOffsets(name string, off []uint32, count, total int) error {
	if len(off) != count+1 {
		return fmt.Errorf("tiles: %d %s offsets for %d runs", len(off), name, count)
	}
	if off[0] != 0 || int(off[count]) != total {
		return fmt.Errorf("tiles: %s offsets run from %d to %d, want 0 to %d", name, off[0], off[count], total)
	}
	for i := 1; i <= count; i++ {
		if off[i] <= off[i-1] {
			return fmt.Errorf("tiles: %s offset %d is %d, after %d", name, i, off[i], off[i-1])
		}
	}
	return nil
}

// Columns returns the tiles' arrays for persistence and validation. The
// slices alias the index and must not be mutated.
func (t *Tiles) Columns() Columns { return t.c }

// MemoryBytes returns the footprint of every column.
func (t *Tiles) MemoryBytes() int64 {
	c := &t.c
	return int64(8*(len(c.SlabX)+len(c.CellMBR)+len(c.X)+len(c.Y)) +
		4*(len(c.SlabCells)+len(c.CellPoints)+len(c.Post)+len(c.ID)))
}

// Any reports whether some point lies inside r (boundary inclusive) with
// its post in label, which must be canonical (sorted, disjoint). Slabs
// are found by binary search on their max x and walked until one starts
// past r; cells within a slab likewise on y. A cell r contains is
// decided by its posts alone; a boundary cell tests x and y for each
// point whose post is in the label. Per traversal, sp counts a slab
// visited as a node, a cell whose bounds meet r as a leaf, and each
// point x/y-tested as an entry.
//
// dead, when not nil, filters the points by column position: a point k
// with dead(k) counts as absent. A contained cell then answers with its
// first live candidate, and a boundary cell tests x and y before
// liveness. The dynamic index passes its tombstones here; a static
// index passes nil and pays one nil check per candidate run.
func (t *Tiles) Any(r geom.Rect, label intervals.Set, dead func(k int) bool, sp *trace.Span) bool {
	c := &t.c
	nslabs := len(c.SlabCells) - 1
	i, j := 0, nslabs
	for i < j {
		if m := int(uint(i+j) >> 1); c.SlabX[2*m+1] < r.Min.X {
			i = m + 1
		} else {
			j = m
		}
	}
	for s := i; s < nslabs && c.SlabX[2*s] <= r.Max.X; s++ {
		sp.IncNode()
		a, end := int(c.SlabCells[s]), int(c.SlabCells[s+1])
		for b := end; a < b; {
			if m := int(uint(a+b) >> 1); c.CellMBR[4*m+3] < r.Min.Y {
				a = m + 1
			} else {
				b = m
			}
		}
		for cell := a; cell < end && c.CellMBR[4*cell+1] <= r.Max.Y; cell++ {
			box := c.CellMBR[4*cell : 4*cell+4 : 4*cell+4]
			if box[2] < r.Min.X || box[0] > r.Max.X {
				continue
			}
			sp.IncLeaf()
			inside := r.Min.X <= box[0] && box[2] <= r.Max.X && r.Min.Y <= box[1] && box[3] <= r.Max.Y
			if t.cellAny(int(c.CellPoints[cell]), int(c.CellPoints[cell+1]), r, label, inside, dead, sp) {
				return true
			}
		}
	}
	return false
}

// cellAny merge-joins the sorted posts of points p0..p1-1 with the
// label: a monotone cursor on each side, each advanced by binary search,
// after a shortcut for a cell whose posts all fall in one interval (the
// giant component's label covers most cells so). When inside, the first
// live post in the label is the witness; otherwise each run of points
// whose posts fall in one interval is x/y-tested against r (anyInside,
// or testLive under a filter).
func (t *Tiles) cellAny(p0, p1 int, r geom.Rect, label intervals.Set, inside bool, dead func(int) bool, sp *trace.Span) bool {
	posts := t.c.Post[p0:p1]
	j := label.FirstEndingAt(posts[0])
	if j == len(label) {
		return false
	}
	whole := label[j].Lo <= posts[0] && posts[len(posts)-1] <= label[j].Hi
	total := 0
	for k, end := 0, len(posts); ; {
		if !whole {
			iv := label[j]
			k += lowerBound(posts[k:], iv.Lo)
			end = k + upperBound(posts[k:], iv.Hi)
		}
		if k < end {
			var tested int
			var hit bool
			if dead == nil {
				if inside {
					return true
				}
				tested, hit = anyInside(t.c.X[p0+k:p0+end], t.c.Y[p0+k:p0+end], r)
			} else {
				tested, hit = testLive(t.c.X[p0+k:p0+end], t.c.Y[p0+k:p0+end], p0+k, r, inside, dead)
			}
			if total += tested; hit {
				sp.AddEntries(total)
				return true
			}
		}
		if whole || end == len(posts) {
			break
		}
		k = end
		if j += 1 + label[j+1:].FirstEndingAt(posts[k]); j == len(label) {
			break
		}
	}
	sp.AddEntries(total)
	return false
}

// testLive is anyInside under a filter, for the points (xs[i], ys[i])
// at column positions p0, p0+1, ..., whose posts are all in the label:
// the first live point of a contained cell's run is the witness,
// untested; a boundary cell's point must lie inside r and be live.
func testLive(xs, ys []float64, p0 int, r geom.Rect, inside bool, dead func(int) bool) (tested int, hit bool) {
	if inside {
		for i := range xs {
			if !dead(p0 + i) {
				return 0, true
			}
		}
		return 0, false
	}
	ys = ys[:len(xs)]
	for i, x := range xs {
		if y := ys[i]; r.Min.X <= x && x <= r.Max.X && r.Min.Y <= y && y <= r.Max.Y && !dead(p0+i) {
			return i + 1, true
		}
	}
	return len(xs), false
}

// anyInside reports whether some point (xs[i], ys[i]) lies inside r,
// and how many points it tested to find out. It tests eight at a time
// without branching on the outcome: in a cell r cuts through, which
// points fall inside follows no pattern a branch predictor could learn.
func anyInside(xs, ys []float64, r geom.Rect) (tested int, hit bool) {
	ys = ys[:len(xs)]
	var in uint8
	for i, x := range xs {
		y := ys[i]
		in |= b2u(r.Min.X <= x) & b2u(x <= r.Max.X) & b2u(r.Min.Y <= y) & b2u(y <= r.Max.Y)
		if i&7 == 7 && in != 0 {
			return i + 1, true
		}
	}
	return len(xs), in != 0
}

// b2u converts without a branch: the compiler turns the pattern into a
// flag-to-register move.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// lowerBound returns the first index of the sorted posts holding p or
// more.
func lowerBound(posts []int32, p int32) int {
	i, j := 0, len(posts)
	for i < j {
		if m := int(uint(i+j) >> 1); posts[m] < p {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// upperBound returns the first index of the sorted posts holding more
// than p.
func upperBound(posts []int32, p int32) int {
	i, j := 0, len(posts)
	for i < j {
		if m := int(uint(i+j) >> 1); posts[m] <= p {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// Validate checks what FromColumns leaves out, over every slab and
// cell: each slab's x range and each cell's bounds are non-empty; slabs
// are ordered along x and cells within a slab along y, one's range
// ending where or before the next begins; a slab's x range contains its
// cells'; a cell holds at most CellSize points, inside its bounds and
// sorted by post. Those are the invariants the binary searches, the
// early stops and the contained-cell shortcut of Any rely on.
func (t *Tiles) Validate() error {
	c := &t.c
	if _, err := FromColumns(*c, math.MaxInt32); err != nil {
		return err
	}
	for s := 0; s+1 < len(c.SlabCells); s++ {
		minX, maxX := c.SlabX[2*s], c.SlabX[2*s+1]
		if !(minX <= maxX) {
			return fmt.Errorf("tiles: slab %d spans x %g..%g", s, minX, maxX)
		}
		if s > 0 && !(c.SlabX[2*s-1] <= minX) {
			return fmt.Errorf("tiles: slab %d starts at x %g, before slab %d ends at %g", s, minX, s-1, c.SlabX[2*s-1])
		}
		for cell := int(c.SlabCells[s]); cell < int(c.SlabCells[s+1]); cell++ {
			box := c.CellMBR[4*cell : 4*cell+4]
			if !(box[0] <= box[2] && box[1] <= box[3]) {
				return fmt.Errorf("tiles: cell %d has bounds %v", cell, box)
			}
			if !(minX <= box[0] && box[2] <= maxX) {
				return fmt.Errorf("tiles: cell %d spans x %g..%g outside its slab %d's %g..%g", cell, box[0], box[2], s, minX, maxX)
			}
			if cell > int(c.SlabCells[s]) && !(c.CellMBR[4*cell-1] <= box[1]) {
				return fmt.Errorf("tiles: cell %d starts at y %g, before cell %d ends at %g", cell, box[1], cell-1, c.CellMBR[4*cell-1])
			}
			p0, p1 := int(c.CellPoints[cell]), int(c.CellPoints[cell+1])
			if p1-p0 > CellSize {
				return fmt.Errorf("tiles: cell %d holds %d points, more than %d", cell, p1-p0, CellSize)
			}
			for k := p0; k < p1; k++ {
				if x, y := c.X[k], c.Y[k]; !(box[0] <= x && x <= box[2] && box[1] <= y && y <= box[3]) {
					return fmt.Errorf("tiles: point %d (id %d) at (%g, %g) is outside cell %d's bounds %v", k, c.ID[k], x, y, cell, box)
				}
				if k > p0 && c.Post[k] < c.Post[k-1] {
					return fmt.Errorf("tiles: cell %d's posts are out of order at point %d: %d after %d", cell, k, c.Post[k], c.Post[k-1])
				}
			}
		}
	}
	return nil
}
