package geom

// Flat coordinates for the structure-of-arrays layouts of the flat
// index format: a bound of d dimensions serializes to 2d float64s, min
// corner then max corner, axis-major — which is also how Rect and Box3
// lie in memory, so the flat R-tree reads a stored bound in place (see
// rtree.Bound).

// AppendCoords appends r's corners to dst as MinX, MinY, MaxX, MaxY.
func (r Rect) AppendCoords(dst []float64) []float64 {
	return append(dst, r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
}

// AppendCoords appends b's corners to dst as MinX, MinY, MinZ, MaxX,
// MaxY, MaxZ.
func (b Box3) AppendCoords(dst []float64) []float64 {
	return append(dst, b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z)
}
