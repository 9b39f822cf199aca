package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(3, 7, 1, 2) // corners given out of order
	if r.Min != Pt(1, 2) || r.Max != Pt(3, 7) {
		t.Fatalf("NewRect normalization: got %v", r)
	}
	if got := r.Width(); got != 2 {
		t.Errorf("Width = %g, want 2", got)
	}
	if got := r.Height(); got != 5 {
		t.Errorf("Height = %g, want 5", got)
	}
	if got := r.Area(); got != 10 {
		t.Errorf("Area = %g, want 10", got)
	}
	if got := r.Center(); got != Pt(2, 4.5) {
		t.Errorf("Center = %v, want (2, 4.5)", got)
	}
}

func TestRectContainsPoint(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(0, 0), true},   // boundary inclusive
		{Pt(10, 10), true}, // boundary inclusive
		{Pt(10, 0), true},
		{Pt(-0.001, 5), false},
		{Pt(5, 10.001), false},
	}
	for _, tc := range tests {
		if got := r.ContainsPoint(tc.p); got != tc.want {
			t.Errorf("ContainsPoint(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(0, 0, 5, 5)
	tests := []struct {
		b    Rect
		want bool
	}{
		{NewRect(4, 4, 6, 6), true},
		{NewRect(5, 5, 6, 6), true}, // touch at corner counts
		{NewRect(6, 6, 7, 7), false},
		{NewRect(1, 1, 2, 2), true}, // contained
		{NewRect(-1, -1, 6, 6), true},
		{NewRect(0, 6, 5, 7), false},
	}
	for _, tc := range tests {
		if got := a.Intersects(tc.b); got != tc.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", a, tc.b, got, tc.want)
		}
		if got := tc.b.Intersects(a); got != tc.want {
			t.Errorf("Intersects not symmetric for %v", tc.b)
		}
	}
}

func TestRectContainsRect(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	if !a.ContainsRect(NewRect(0, 0, 10, 10)) {
		t.Error("rect should contain itself")
	}
	if !a.ContainsRect(NewRect(2, 2, 3, 3)) {
		t.Error("inner rect not contained")
	}
	if a.ContainsRect(NewRect(2, 2, 11, 3)) {
		t.Error("overflowing rect reported contained")
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	r := NewRect(1, 1, 2, 2)
	if got := e.Union(r); got != r {
		t.Errorf("EmptyRect.Union(%v) = %v, want identity", r, got)
	}
	if e.ContainsPoint(Pt(0, 0)) {
		t.Error("empty rect contains a point")
	}
}

func TestRectUnionProperties(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		a := NewRect(clean(x1), clean(y1), clean(x2), clean(y2))
		b := NewRect(clean(x3), clean(y3), clean(x4), clean(y4))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b) &&
			u == b.Union(a) && // commutative
			u.Area() >= a.Area() && u.Area() >= b.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectEnlargement(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	if got := a.Enlargement(NewRect(1, 1, 2, 2)); got != 0 {
		t.Errorf("Enlargement(contained) = %g, want 0", got)
	}
	if got := a.Enlargement(NewRect(0, 0, 4, 2)); got != 4 {
		t.Errorf("Enlargement = %g, want 4", got)
	}
}

// clean maps arbitrary quick floats into a sane finite range.
func clean(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestBox3Basics(t *testing.T) {
	b := NewBox3(1, 2, 3, 4, 6, 9)
	if got := b.Volume(); got != 3*4*6 {
		t.Errorf("Volume = %g, want 72", got)
	}
	if got := b.Rect(); got != NewRect(1, 2, 4, 6) {
		t.Errorf("Rect projection = %v", got)
	}
	if !b.ContainsPoint(Pt3(1, 2, 3)) || !b.ContainsPoint(Pt3(4, 6, 9)) {
		t.Error("corner points not contained")
	}
	if b.ContainsPoint(Pt3(0.999, 2, 3)) {
		t.Error("outside point contained")
	}
}

func TestBox3FromRect(t *testing.T) {
	r := NewRect(0, 0, 10, 20)
	b := Box3FromRect(r, 7, 3) // z order normalized
	if b.Min.Z != 3 || b.Max.Z != 7 {
		t.Errorf("z bounds = [%g, %g], want [3, 7]", b.Min.Z, b.Max.Z)
	}
	if b.Rect() != r {
		t.Errorf("base = %v, want %v", b.Rect(), r)
	}
	// A vertical segment, and planes that cut or miss it.
	s := Box3FromRect(RectFromPoint(Pt(3, 4)), 1, 9)
	if s.Volume() != 0 {
		t.Error("vertical segment should have zero volume")
	}
	if !Box3FromRect(NewRect(0, 0, 10, 10), 5, 5).Intersects(s) {
		t.Error("plane at z=5 should cut segment [1,9]")
	}
	if Box3FromRect(NewRect(0, 0, 10, 10), 10, 10).Intersects(s) {
		t.Error("plane at z=10 should miss segment [1,9]")
	}
	if Box3FromRect(NewRect(4, 5, 10, 10), 5, 5).Intersects(s) {
		t.Error("plane missing segment in xy should not intersect")
	}
}

func TestBox3IntersectsSymmetric(t *testing.T) {
	f := func(vals [12]float64) bool {
		for i := range vals {
			vals[i] = clean(vals[i])
		}
		a := NewBox3(vals[0], vals[1], vals[2], vals[3], vals[4], vals[5])
		b := NewBox3(vals[6], vals[7], vals[8], vals[9], vals[10], vals[11])
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		u := a.Union(b)
		return u.ContainsBox(a) && u.ContainsBox(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	// Smoke-test the Stringer implementations so broken formats fail loudly.
	for _, s := range []string{
		Pt(1, 2).String(),
		NewRect(0, 0, 1, 1).String(),
		Pt3(1, 2, 3).String(),
		NewBox3(0, 0, 0, 1, 1, 1).String(),
	} {
		if s == "" {
			t.Error("empty String()")
		}
	}
}
