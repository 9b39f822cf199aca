// Package geom provides the geometric primitives used throughout the
// geosocial reachability library: two-dimensional points and rectangles,
// and the three-dimensional boxes and vertical segments that back the
// 3DReach transformation.
//
// All coordinates are float64. Rectangles and boxes are closed on every
// side: a point on the boundary is contained.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the two-dimensional plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle in the plane, described by its
// minimum and maximum corners. A Rect with Min == Max degenerates to a
// point, which is still a valid (empty-area) rectangle.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanned by two arbitrary corner points,
// normalizing the corner order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	return Rect{
		Min: Point{math.Min(x1, x2), math.Min(y1, y2)},
		Max: Point{math.Max(x1, x2), math.Max(y1, y2)},
	}
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect { return Rect{Min: p, Max: p} }

// Valid reports whether r.Min is component-wise no greater than r.Max.
func (r Rect) Valid() bool {
	return r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// Finite reports whether every coordinate of r is a finite number: not
// NaN and not infinite. Stored geometry must be; a query region need
// not.
func (r Rect) Finite() bool {
	for _, c := range [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return false
		}
	}
	return true
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// ContainsPoint reports whether p lies inside r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// UnionPoint returns the smallest rectangle covering r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return r.Union(RectFromPoint(p))
}

// Enlargement returns how much r's area grows when extended to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g, %g]x[%g, %g]", r.Min.X, r.Max.X, r.Min.Y, r.Max.Y)
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and disappears when united with any valid rectangle.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// IsEmpty reports whether r is the empty rectangle (or otherwise inverted).
func (r Rect) IsEmpty() bool { return !r.Valid() }
