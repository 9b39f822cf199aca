package geom

import (
	"fmt"
	"math"
)

// Point3 is a point in the three-dimensional space used by the 3DReach
// transformation: X and Y are the original spatial coordinates and Z holds
// a post-order number from the interval-based labeling.
type Point3 struct {
	X, Y, Z float64
}

// Pt3 is shorthand for Point3{x, y, z}.
func Pt3(x, y, z float64) Point3 { return Point3{X: x, Y: y, Z: z} }

// String implements fmt.Stringer.
func (p Point3) String() string { return fmt.Sprintf("(%g, %g, %g)", p.X, p.Y, p.Z) }

// Box3 is an axis-aligned box (rectangular cuboid) in three dimensions.
// RangeReach queries are rewritten by 3DReach into Box3 range searches
// whose base is the query region and whose Z extent is an interval label.
type Box3 struct {
	Min, Max Point3
}

// NewBox3 returns the box spanned by two arbitrary corner points.
func NewBox3(x1, y1, z1, x2, y2, z2 float64) Box3 {
	return Box3{
		Min: Point3{math.Min(x1, x2), math.Min(y1, y2), math.Min(z1, z2)},
		Max: Point3{math.Max(x1, x2), math.Max(y1, y2), math.Max(z1, z2)},
	}
}

// Box3FromPoint returns the degenerate box covering exactly p.
func Box3FromPoint(p Point3) Box3 { return Box3{Min: p, Max: p} }

// Box3FromRect lifts a 2D rectangle into 3D, spanning [zlo, zhi] on the
// third axis. This is exactly the cuboid a 3DReach label query uses.
func Box3FromRect(r Rect, zlo, zhi float64) Box3 {
	return Box3{
		Min: Point3{r.Min.X, r.Min.Y, math.Min(zlo, zhi)},
		Max: Point3{r.Max.X, r.Max.Y, math.Max(zlo, zhi)},
	}
}

// Valid reports whether b.Min is component-wise no greater than b.Max.
func (b Box3) Valid() bool {
	return b.Min.X <= b.Max.X && b.Min.Y <= b.Max.Y && b.Min.Z <= b.Max.Z
}

// Rect returns the projection of b onto the XY plane.
func (b Box3) Rect() Rect {
	return Rect{Min: Point{b.Min.X, b.Min.Y}, Max: Point{b.Max.X, b.Max.Y}}
}

// Volume returns the volume of b.
func (b Box3) Volume() float64 {
	return (b.Max.X - b.Min.X) * (b.Max.Y - b.Min.Y) * (b.Max.Z - b.Min.Z)
}

// ContainsPoint reports whether p lies inside b (boundary inclusive).
func (b Box3) ContainsPoint(p Point3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// ContainsBox reports whether c lies entirely inside b.
func (b Box3) ContainsBox(c Box3) bool {
	return c.Min.X >= b.Min.X && c.Max.X <= b.Max.X &&
		c.Min.Y >= b.Min.Y && c.Max.Y <= b.Max.Y &&
		c.Min.Z >= b.Min.Z && c.Max.Z <= b.Max.Z
}

// Intersects reports whether b and c share at least one point.
func (b Box3) Intersects(c Box3) bool {
	return b.Min.X <= c.Max.X && c.Min.X <= b.Max.X &&
		b.Min.Y <= c.Max.Y && c.Min.Y <= b.Max.Y &&
		b.Min.Z <= c.Max.Z && c.Min.Z <= b.Max.Z
}

// Union returns the smallest box covering both b and c.
func (b Box3) Union(c Box3) Box3 {
	return Box3{
		Min: Point3{
			math.Min(b.Min.X, c.Min.X),
			math.Min(b.Min.Y, c.Min.Y),
			math.Min(b.Min.Z, c.Min.Z),
		},
		Max: Point3{
			math.Max(b.Max.X, c.Max.X),
			math.Max(b.Max.Y, c.Max.Y),
			math.Max(b.Max.Z, c.Max.Z),
		},
	}
}

// String implements fmt.Stringer.
func (b Box3) String() string {
	return fmt.Sprintf("[%g, %g]x[%g, %g]x[%g, %g]",
		b.Min.X, b.Max.X, b.Min.Y, b.Max.Y, b.Min.Z, b.Max.Z)
}

// IsEmpty reports whether b is the empty box (or otherwise inverted).
func (b Box3) IsEmpty() bool { return !b.Valid() }
