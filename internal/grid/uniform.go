package grid

import (
	"math"

	"repro/internal/geom"
)

// Side is the number of cells per axis of a Uniform grid: 64, so that
// one row of a Bitmap is one uint64.
const Side = 64

// Uniform is a fixed Side×Side grid over a rectangular space: the
// coarse occupancy grid GeoReach keeps as its cheapest spatial summary.
// It is the one coordinate → cell mapping of the repository's cell
// structures (the incremental engine's overlay buckets and the shard
// map's occupancy cells), so a venue is placed with exactly the rule a
// query region is read with.
//
// The mapping never decreases along an axis, infinities included, and
// clamps coordinates outside the space to the border cells. So a point
// p of a region r always lies in a cell of Range(r), wherever p and r
// sit relative to the space.
type Uniform struct {
	min    geom.Point
	cw, ch float64 // cell width and height
}

// NewUniform returns the grid over space.
func NewUniform(space geom.Rect) Uniform {
	w := space.Max.X - space.Min.X
	h := space.Max.Y - space.Min.Y
	// A degenerate axis (all venues collinear, or an empty network) gets
	// unit extent so cell sizes stay positive, and one wider than the
	// float range so they stay finite.
	if !(w > 0 && w <= math.MaxFloat64) {
		w = 1
	}
	if !(h > 0 && h <= math.MaxFloat64) {
		h = 1
	}
	if space.IsEmpty() {
		space.Min = geom.Point{}
	}
	return Uniform{min: space.Min, cw: w / Side, ch: h / Side}
}

// Range returns the clamped cell-index range covered by r. A cell
// strictly between r's first and last lies inside r on that axis.
func (u Uniform) Range(r geom.Rect) (x0, y0, x1, y1 int) {
	x0 = cellOf((r.Min.X - u.min.X) / u.cw)
	x1 = cellOf((r.Max.X - u.min.X) / u.cw)
	y0 = cellOf((r.Min.Y - u.min.Y) / u.ch)
	y1 = cellOf((r.Max.Y - u.min.Y) / u.ch)
	return
}

// cellOf clamps the cell coordinate t into [0, Side) before converting
// it: a float-to-int conversion of an infinity or of a value past the
// int range is implementation-defined in Go. NaN, which no stored venue
// has, clamps to 0.
func cellOf(t float64) int {
	if !(t >= 0) {
		return 0
	}
	if t >= Side {
		return Side - 1
	}
	return int(t)
}

// Bitmap is a set of cells of a Uniform grid, one uint64 per row: bit x
// of row y is cell (x, y).
type Bitmap [Side]uint64

// rowMask is the bits x0..x1 of a row; zero when x0 > x1.
func rowMask(x0, x1 int) uint64 {
	if x0 > x1 {
		return 0
	}
	return (^uint64(0) >> (Side - 1 - x1)) &^ (uint64(1)<<x0 - 1)
}

// Mark adds every cell r covers under u.
func (b *Bitmap) Mark(u Uniform, r geom.Rect) {
	x0, y0, x1, y1 := u.Range(r)
	m := rowMask(x0, x1)
	for y := y0; y <= y1; y++ {
		b[y] |= m
	}
}

// Meets reports whether a cell r covers under u is in b: at most Side
// word ANDs. False is exact for any geometry whose cells b holds: none
// of it lies in r.
func (b *Bitmap) Meets(u Uniform, r geom.Rect) bool {
	x0, y0, x1, y1 := u.Range(r)
	m := rowMask(x0, x1)
	for y := y0; y <= y1; y++ {
		if b[y]&m != 0 {
			return true
		}
	}
	return false
}

// Empty reports whether b holds no cell.
func (b *Bitmap) Empty() bool { return *b == Bitmap{} }
