package grid

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func unitHierarchy(levels int) *Hierarchy {
	return NewHierarchy(geom.NewRect(0, 0, 100, 100), levels)
}

func TestCellKeyRoundTrip(t *testing.T) {
	cells := []Cell{
		{0, 0, 0},
		{3, 17, 92},
		{7, 127, 127},
		{19, 1 << 19, 42},
	}
	for _, c := range cells {
		if got := CellFromKey(c.Key()); got != c {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
}

func TestHierarchyGeometry(t *testing.T) {
	h := unitHierarchy(4) // top level 3; level 0 has 8x8 cells
	if h.Levels() != 4 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	if h.SideCells(0) != 8 || h.SideCells(3) != 1 {
		t.Fatal("SideCells wrong")
	}
	c := h.CellAt(geom.Pt(0, 0), 0)
	if c != (Cell{0, 0, 0}) {
		t.Errorf("CellAt origin = %v", c)
	}
	c = h.CellAt(geom.Pt(99.9, 99.9), 0)
	if c != (Cell{0, 7, 7}) {
		t.Errorf("CellAt far corner = %v", c)
	}
	// Boundary point and outside points clamp.
	if h.CellAt(geom.Pt(100, 100), 0) != (Cell{0, 7, 7}) {
		t.Error("boundary clamp failed")
	}
	if h.CellAt(geom.Pt(-5, 200), 0) != (Cell{0, 0, 7}) {
		t.Error("outside clamp failed")
	}
	// Cell rect contains its generating point.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		for lvl := uint8(0); lvl < 4; lvl++ {
			cell := h.CellAt(p, lvl)
			if !h.Rect(cell).ContainsPoint(p) {
				t.Fatalf("cell %v does not contain %v", cell, p)
			}
		}
	}
}

func TestParentChain(t *testing.T) {
	h := unitHierarchy(4)
	c := Cell{0, 5, 6}
	p1, ok := h.Parent(c)
	if !ok || p1 != (Cell{1, 2, 3}) {
		t.Fatalf("Parent = %v", p1)
	}
	p2, _ := h.Parent(p1)
	if p2 != (Cell{2, 1, 1}) {
		t.Fatalf("grandparent = %v", p2)
	}
	top, _ := h.Parent(p2)
	if top != (Cell{3, 0, 0}) {
		t.Fatalf("top = %v", top)
	}
	if _, ok := h.Parent(top); ok {
		t.Error("top cell has a parent")
	}
	// Parent rect covers child rect.
	if !h.Rect(p1).ContainsRect(h.Rect(c)) {
		t.Error("parent rect does not cover child")
	}
}

func TestDegenerateSpace(t *testing.T) {
	// All points identical.
	h := NewHierarchy(geom.RectFromPoint(geom.Pt(3, 3)), 4)
	c := h.CellAt(geom.Pt(3, 3), 0)
	if !h.Rect(c).ContainsPoint(geom.Pt(3, 3)) {
		t.Error("degenerate space cell misses the point")
	}
	// Empty space.
	h = NewHierarchy(geom.EmptyRect(), 3)
	if h.Space().IsEmpty() {
		t.Error("hierarchy space still empty")
	}
}

func TestCollinearSpace(t *testing.T) {
	// A zero-width space (all points on the line x=6). Only the
	// degenerate axis may be inflated: the points must remain inside the
	// space, and each must land in a cell whose rectangle contains it —
	// otherwise a ReachGrid seeded from these points fails to cover
	// them and GeoReach's G-vertex pruning gives false negatives.
	pts := []geom.Point{geom.Pt(6, 6), geom.Pt(6, 49)}
	space := geom.RectFromPoint(pts[0]).Union(geom.RectFromPoint(pts[1]))
	for _, levels := range []int{1, 4, 8} {
		h := NewHierarchy(space, levels)
		for _, p := range pts {
			if !h.Space().ContainsPoint(p) {
				t.Errorf("levels=%d: space %v lost point %v", levels, h.Space(), p)
			}
			c := h.CellAt(p, 0)
			if !h.Rect(c).ContainsPoint(p) {
				t.Errorf("levels=%d: cell %v (%v) misses point %v", levels, c, h.Rect(c), p)
			}
		}
	}
	// Same for a zero-height space.
	h := NewHierarchy(geom.NewRect(2, 7, 40, 7), 5)
	for _, p := range []geom.Point{geom.Pt(2, 7), geom.Pt(40, 7)} {
		if !h.Rect(h.CellAt(p, 0)).ContainsPoint(p) {
			t.Errorf("zero-height space: cell misses point %v", p)
		}
	}
}

func TestNewHierarchyPanics(t *testing.T) {
	for _, levels := range []int{0, 21, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("levels=%d: expected panic", levels)
				}
			}()
			NewHierarchy(geom.NewRect(0, 0, 1, 1), levels)
		}()
	}
}

// cellsOf lists a set's members for a failure message.
func cellsOf(s CellSet) []Cell {
	out := make([]Cell, 0, len(s))
	for k := range s {
		out = append(out, CellFromKey(k))
	}
	return out
}

func TestMergePaperExample(t *testing.T) {
	// Example 2.5: with MERGE_COUNT = 1, two sibling quad-cells merge
	// into their parent.
	h := unitHierarchy(4)
	s := make(CellSet)
	s.Add(Cell{0, 0, 0})
	s.Add(Cell{0, 1, 1}) // same parent {1,0,0}
	s.Add(Cell{0, 6, 6}) // lone cell elsewhere
	s.Merge(h, 1)
	if !s.Has(Cell{1, 0, 0}) {
		t.Error("siblings not merged into parent")
	}
	if s.Has(Cell{0, 0, 0}) || s.Has(Cell{0, 1, 1}) {
		t.Error("children kept after merge")
	}
	if !s.Has(Cell{0, 6, 6}) {
		t.Error("lone cell should survive")
	}
}

func TestMergeCascades(t *testing.T) {
	h := unitHierarchy(4)
	s := make(CellSet)
	// All four children of {1,0,0} and of {1,1,1}: with mergeCount 1
	// both parents appear, then both merge into {2,0,0}.
	for _, c := range []Cell{{0, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0, 1, 1},
		{0, 2, 2}, {0, 3, 2}, {0, 2, 3}, {0, 3, 3}} {
		s.Add(c)
	}
	s.Merge(h, 1)
	if s.Len() != 1 || !s.Has(Cell{2, 0, 0}) {
		t.Errorf("cascade merge result: %v", cellsOf(s))
	}
}

func TestMergeRespectsCount(t *testing.T) {
	h := unitHierarchy(4)
	s := make(CellSet)
	s.Add(Cell{0, 0, 0})
	s.Add(Cell{0, 1, 1})
	s.Merge(h, 3) // 2 siblings <= 3: no merge
	if s.Len() != 2 {
		t.Errorf("unexpected merge: %v", cellsOf(s))
	}
}

func TestMergeAbsorbsCoveredCells(t *testing.T) {
	h := unitHierarchy(4)
	s := make(CellSet)
	s.Add(Cell{1, 0, 0})
	s.Add(Cell{0, 1, 1}) // covered by the level-1 cell
	s.Merge(h, 99)
	if s.Len() != 1 || !s.Has(Cell{1, 0, 0}) {
		t.Errorf("covered cell not absorbed: %v", cellsOf(s))
	}
}

func TestCellSetOps(t *testing.T) {
	a := make(CellSet)
	a.Add(Cell{0, 1, 1})
	b := make(CellSet)
	b.Add(Cell{0, 1, 1})
	b.Add(Cell{0, 2, 2})
	a.UnionWith(b)
	if a.Len() != 2 || !a.Has(Cell{0, 2, 2}) {
		t.Error("UnionWith failed")
	}
	if (Cell{0, 1, 1}).String() == "" {
		t.Error("empty String")
	}
}

// TestBitmapMeetsWhatItMarks: a bitmap marked with a geometry meets
// every region holding a point of it — on a regular, a collinear and an
// empty space, with geometries and regions inside, on the edges of and
// past the space.
func TestBitmapMeetsWhatItMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	coord := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return float64(rng.Intn(65)) * 100 / Side // a cell edge
		case 1:
			return rng.Float64()*400 - 150 // often past the space
		}
		return rng.Float64() * 100
	}
	for _, space := range []geom.Rect{geom.NewRect(0, 0, 100, 100), geom.NewRect(5, 0, 5, 100), geom.EmptyRect()} {
		u := NewUniform(space)
		for i := 0; i < 2000; i++ {
			g := geom.NewRect(coord(), coord(), coord(), coord())
			if rng.Intn(2) == 0 {
				g = geom.RectFromPoint(g.Min)
			}
			var b Bitmap
			b.Mark(u, g)
			if b.Empty() {
				t.Fatalf("space %v: marking %v marked nothing", space, g)
			}
			p := geom.Pt(g.Min.X+rng.Float64()*g.Width(), g.Min.Y+rng.Float64()*g.Height())
			r := geom.NewRect(p.X, p.Y, p.X+rng.Float64()*10, p.Y-rng.Float64()*10)
			if !b.Meets(u, r) || !b.Meets(u, geom.RectFromPoint(p)) {
				t.Fatalf("space %v: %v marked, region %v holds its point %v, but Meets is false", space, g, r, p)
			}
		}
	}
	var b Bitmap
	u := NewUniform(geom.NewRect(0, 0, 64, 64))
	b.Mark(u, geom.NewRect(10.5, 3, 12, 3))
	for _, c := range []struct {
		r    geom.Rect
		want bool
	}{
		{geom.NewRect(0, 0, 10, 64), true},    // reaches cell 10 at x = 10
		{geom.NewRect(0, 0, 9.99, 64), false}, // stops in cell 9
		{geom.NewRect(13, 0, 64, 64), false},
		{geom.NewRect(12, 3.5, 12, 3.5), true}, // same cell (12, 3)
		{geom.NewRect(12, 4, 12, 4), false},
	} {
		if got := b.Meets(u, c.r); got != c.want {
			t.Errorf("Meets(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}
