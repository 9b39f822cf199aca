package geom

// The methods in this file give Rect and Box3 a common shape so that the
// generic R-tree in internal/rtree can index either: see rtree.Bound.

// Dims returns 2, the dimensionality of a Rect.
func (Rect) Dims() int { return 2 }

// Contains reports whether s lies entirely inside r (alias of
// ContainsRect, shared with Box3.Contains for the generic R-tree).
func (r Rect) Contains(s Rect) bool { return r.ContainsRect(s) }

// CenterCoord returns the center coordinate of r along dimension d
// (0 = x, 1 = y).
func (r Rect) CenterCoord(d int) float64 {
	if d == 0 {
		return (r.Min.X + r.Max.X) / 2
	}
	return (r.Min.Y + r.Max.Y) / 2
}

// Dims returns 3, the dimensionality of a Box3.
func (Box3) Dims() int { return 3 }

// Contains reports whether c lies entirely inside b (alias of
// ContainsBox, shared with Rect.Contains for the generic R-tree).
func (b Box3) Contains(c Box3) bool { return b.ContainsBox(c) }

// CenterCoord returns the center coordinate of b along dimension d
// (0 = x, 1 = y, 2 = z).
func (b Box3) CenterCoord(d int) float64 {
	switch d {
	case 0:
		return (b.Min.X + b.Max.X) / 2
	case 1:
		return (b.Min.Y + b.Max.Y) / 2
	default:
		return (b.Min.Z + b.Max.Z) / 2
	}
}
