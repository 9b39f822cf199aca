package tiles

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
)

// comparisonNew is New as it was before its radix sorts: three
// slices.SortFunc passes with the comparisons spelled out. New must
// give its columns bit for bit.
func comparisonNew(es []Entry) *Tiles {
	// The sorts move a min corner, post and id, 24 bytes, not an Entry's
	// 40; an extent's max corner is looked up by id when it is written.
	type key struct {
		x, y     float64
		post, id int32
	}
	// Each order is decided by its first key unless that ties (or is
	// NaN, which cmp.Compare places first); the fallback is the whole
	// comparison.
	byX := func(a, b key) int {
		if a.x < b.x {
			return -1
		} else if a.x > b.x {
			return 1
		}
		return cmp.Or(cmp.Compare(a.x, b.x), cmp.Compare(a.y, b.y), cmp.Compare(a.post, b.post), cmp.Compare(a.id, b.id))
	}
	byY := func(a, b key) int {
		if a.y < b.y {
			return -1
		} else if a.y > b.y {
			return 1
		}
		return cmp.Or(cmp.Compare(a.y, b.y), cmp.Compare(a.x, b.x), cmp.Compare(a.post, b.post), cmp.Compare(a.id, b.id))
	}
	byPost := func(a, b key) int {
		return cmp.Or(cmp.Compare(a.post, b.post), cmp.Compare(a.id, b.id))
	}

	n := len(es)
	keys := make([]key, n)
	for i, e := range es {
		keys[i] = key{e.Box.Min.X, e.Box.Min.Y, e.Post, e.ID}
	}
	var pos []int32 // pos[id] indexes es, when some entry is an extent
	if slices.ContainsFunc(es, func(e Entry) bool { return e.Box.Min != e.Box.Max }) {
		pos = make([]int32, slices.MaxFunc(es, func(a, b Entry) int { return cmp.Compare(a.ID, b.ID) }).ID+1)
		for i, e := range es {
			pos[e.ID] = int32(i)
		}
	}
	maxOf := func(k key) geom.Point {
		if pos == nil {
			return geom.Pt(k.x, k.y)
		}
		return es[pos[k.id]].Box.Max
	}
	cells := (n + CellSize - 1) / CellSize
	corners := n
	if pos != nil {
		corners = 2 * n
	}
	c := Columns{
		SlabCells:  []uint32{0},
		CellMBR:    make([]float64, 0, 4*cells),
		CellPoints: make([]uint32, 1, cells+1),
		X:          make([]float64, n, corners),
		Y:          make([]float64, n, corners),
		Post:       make([]int32, 0, n),
		ID:         make([]int32, 0, n),
	}
	if n == 0 {
		return &Tiles{c}
	}
	maxX, maxY := c.X[n:corners], c.Y[n:corners]
	slices.SortFunc(keys, byX)
	slabs := int(math.Ceil(math.Sqrt(float64(n) / CellSize)))
	per := (n + slabs - 1) / slabs
	slabMaxX := math.Inf(-1)
	for lo := 0; lo < n; lo += per {
		slab := keys[lo:min(lo+per, n)]
		for _, k := range slab {
			slabMaxX = runningMax(slabMaxX, maxOf(k).X)
		}
		c.SlabX = append(c.SlabX, slab[0].x, slabMaxX)
		slices.SortFunc(slab, byY)
		cellMaxY := math.Inf(-1)
		for at := 0; at < len(slab); at += CellSize {
			cell := slab[at:min(at+CellSize, len(slab))]
			x0, x1 := cell[0].x, maxOf(cell[0]).X
			for _, k := range cell {
				m := maxOf(k)
				x0, x1 = min(x0, k.x), max(x1, m.X)
				cellMaxY = runningMax(cellMaxY, m.Y)
			}
			c.CellMBR = append(c.CellMBR, x0, cell[0].y, x1, cellMaxY)
			slices.SortFunc(cell, byPost)
			for _, k := range cell {
				i := len(c.Post)
				c.X[i], c.Y[i] = k.x, k.y
				if len(maxX) > 0 {
					m := maxOf(k)
					maxX[i], maxY[i] = m.X, m.Y
				}
				c.Post, c.ID = append(c.Post, k.post), append(c.ID, k.id)
			}
			c.CellPoints = append(c.CellPoints, uint32(len(c.Post)))
		}
		c.SlabCells = append(c.SlabCells, uint32(len(c.CellPoints)-1))
	}
	c.X, c.Y = c.X[:corners], c.Y[:corners]
	return &Tiles{c}
}

// sameColumns compares two column sets bit for bit: a float column
// must hold the same bits, −0 where the other holds −0.
func sameColumns(a, b Columns) bool {
	floats := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return floats(a.SlabX, b.SlabX) && floats(a.CellMBR, b.CellMBR) && floats(a.X, b.X) && floats(a.Y, b.Y) &&
		slices.Equal(a.SlabCells, b.SlabCells) && slices.Equal(a.CellPoints, b.CellPoints) &&
		slices.Equal(a.Post, b.Post) && slices.Equal(a.ID, b.ID)
}

// TestNewMatchesComparisonSortOnSpecialValues covers what the fuzz
// shapes leave out because Validate rejects it: NaN coordinates, which
// orderKey places first, beside ±0, ±Inf and subnormals, in a set large
// enough for several slabs.
func TestNewMatchesComparisonSortOnSpecialValues(t *testing.T) {
	vals := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -5e-324, 5e-324, -1, 1, 2}
	var es []Entry
	for i := 0; i < 3000; i++ {
		x, y := vals[(i*7)%len(vals)], vals[(i*3+i/len(vals))%len(vals)]
		es = append(es, Entry{Box: geom.RectFromPoint(geom.Pt(x, y)), Post: int32(i % 5), ID: int32(3000 - i)})
	}
	if got, want := New(es).Columns(), comparisonNew(es).Columns(); !sameColumns(got, want) {
		t.Fatal("the radix-sorted columns differ from the comparison-sorted ones")
	}
}
