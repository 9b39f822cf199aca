package geom

import "testing"

func TestBoundInterfaceMethods(t *testing.T) {
	r := NewRect(0, 0, 4, 2)
	if r.Dims() != 2 {
		t.Error("Rect.Dims != 2")
	}
	if !r.Contains(NewRect(1, 1, 2, 2)) || r.Contains(NewRect(3, 1, 5, 2)) {
		t.Error("Rect.Contains wrong")
	}
	if r.CenterCoord(0) != 2 || r.CenterCoord(1) != 1 {
		t.Error("Rect.CenterCoord wrong")
	}

	b := NewBox3(0, 0, 0, 4, 2, 6)
	if b.Dims() != 3 {
		t.Error("Box3.Dims != 3")
	}
	if !b.Contains(NewBox3(1, 1, 1, 2, 2, 2)) || b.Contains(NewBox3(1, 1, 5, 2, 2, 7)) {
		t.Error("Box3.Contains wrong")
	}
	if b.CenterCoord(0) != 2 || b.CenterCoord(1) != 1 || b.CenterCoord(2) != 3 {
		t.Error("Box3.CenterCoord wrong")
	}
}

func TestBox3FromPoint(t *testing.T) {
	p := Pt3(1, 2, 3)
	b := Box3FromPoint(p)
	if b.Min != p || b.Max != p {
		t.Errorf("Box3FromPoint = %v", b)
	}
	if b.Volume() != 0 {
		t.Error("degenerate box has volume")
	}
}
