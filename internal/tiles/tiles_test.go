package tiles

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/trace"
)

// Entry-set shapes for randomEntries: four point sets, three with
// extents, then two whose sorts meet ties.
const (
	shapeGrid     = iota // integer coordinates on a 20×20 grid: shared x, y and edges
	shapeDup             // pairs of identical locations
	shapeOneX            // every point on x = 7
	shapeUniform         // continuous coordinates
	shapeBoxes           // every other entry a box up to 4 wide, on the grid
	shapeSegments        // every other entry of zero width or zero height
	shapeHuge            // one box over the whole space among small ones
	shapeTies            // x and y from {0, 1, 2}, posts from {1, 2, 3}, every third entry a box
	shapeZeros           // x and y from {−1, −0, +0, 1}: −0 beside +0 on both axes
	numShapes
)

// randomEntries draws n entries with distinct ids and posts in [1, 2n].
func randomEntries(rng *rand.Rand, n int, shape uint8) []Entry {
	es := make([]Entry, n)
	signed := []float64{-1, math.Copysign(0, -1), 0, 1}
	for i := range es {
		p := geom.Pt(float64(rng.Intn(20)), float64(rng.Intn(20)))
		q := p
		post := 1 + int32(rng.Intn(2*n))
		switch shape % numShapes {
		case shapeDup:
			if i%2 == 1 {
				p = es[i-1].Box.Min
				q = p
			}
		case shapeOneX:
			p.X, q.X = 7, 7
		case shapeUniform:
			p = geom.Pt(rng.Float64()*100, rng.Float64()*100)
			q = p
		case shapeBoxes:
			if i%2 == 1 {
				q = geom.Pt(p.X+float64(rng.Intn(5)), p.Y+float64(rng.Intn(5)))
			}
		case shapeSegments:
			if i%2 == 1 {
				if rng.Intn(2) == 0 {
					q.Y += 1 + float64(rng.Intn(4))
				} else {
					q.X += 1 + float64(rng.Intn(4))
				}
			}
		case shapeHuge:
			p = geom.Pt(rng.Float64()*100, rng.Float64()*100)
			q = geom.Pt(p.X+rng.Float64(), p.Y+rng.Float64())
			if i == n/2 {
				p, q = geom.Pt(-1, -1), geom.Pt(101, 101)
			}
		case shapeTies:
			p = geom.Pt(float64(rng.Intn(3)), float64(rng.Intn(3)))
			q = p
			if i%3 == 2 {
				q = geom.Pt(p.X+float64(rng.Intn(3)), p.Y+float64(rng.Intn(3)))
			}
			post = 1 + int32(rng.Intn(3))
		case shapeZeros:
			p = geom.Pt(signed[rng.Intn(4)], signed[rng.Intn(4)])
			q = p
		}
		es[i] = Entry{Box: geom.Rect{Min: p, Max: q}, Post: post, ID: int32(i)}
	}
	return es
}

// randomLabel draws a canonical label of 1..max intervals over posts in
// [1, maxPost].
func randomLabel(rng *rand.Rand, maxIntervals int, maxPost int32) intervals.Set {
	want := 1 + rng.Intn(maxIntervals)
	var label intervals.Set
	next := int32(1)
	for len(label) < want && next <= maxPost {
		lo := next + int32(rng.Intn(int(maxPost/int32(want))+1))
		hi := lo + int32(rng.Intn(int(maxPost/int32(2*want))+1))
		label = append(label, intervals.Interval{Lo: lo, Hi: hi})
		next = hi + 2
	}
	if len(label) == 0 {
		label = intervals.Singleton(maxPost)
	}
	return label
}

// randomRegion draws regions whose edges fall exactly on entry corners,
// so that they touch entries' edges, and on cell bounds as often as
// anywhere else.
func randomRegion(rng *rand.Rand, t *Tiles, es []Entry) geom.Rect {
	c := t.Columns()
	corner := func() geom.Point {
		e := es[rng.Intn(len(es))]
		if rng.Intn(2) == 0 {
			return e.Box.Min
		}
		return e.Box.Max
	}
	switch {
	case len(es) > 0 && rng.Intn(3) == 0:
		a, b := corner(), corner()
		return geom.NewRect(a.X, a.Y, b.X, b.Y)
	case len(c.CellMBR) > 0 && rng.Intn(2) == 0:
		a, b := 4*rng.Intn(len(c.CellMBR)/4), 4*rng.Intn(len(c.CellMBR)/4)
		return geom.NewRect(c.CellMBR[a], c.CellMBR[a+1], c.CellMBR[b+2], c.CellMBR[b+3])
	default:
		x, y := rng.Float64()*110-5, rng.Float64()*110-5
		return geom.NewRect(x, y, x+rng.Float64()*40, y+rng.Float64()*40)
	}
}

// bruteForce scans the entries, skipping those whose id deadID marks
// (nil marks none).
func bruteForce(es []Entry, r geom.Rect, label intervals.Set, deadID []bool) bool {
	for _, e := range es {
		if r.Intersects(e.Box) && label.ContainsCanonical(e.Post) && (deadID == nil || !deadID[e.ID]) {
			return true
		}
	}
	return false
}

// FuzzTiles checks the built columns bit for bit against comparisonNew's
// (oracle_test.go), Any against a scan of the entries, without a filter
// and under tombstones that mark none, half or nearly all of them dead,
// and the built tiles against Validate and FromColumns. The seeds cover
// 0, 1, 31, 32, 33 and 5,000 entries; duplicate locations and a single
// shared x; extents of zero width or height, and one huge extent among
// small ones; runs of equal x, of equal y and of equal posts, with and
// without extents; −0 beside +0; regions edged on entry corners and on
// cell bounds; labels of 1 to 64 intervals.
func FuzzTiles(f *testing.F) {
	for _, n := range []uint16{0, 1, 31, 32, 33, 5000} {
		for shape := uint8(0); shape < numShapes; shape++ {
			f.Add(n, shape, uint8(1), int64(n)+int64(shape))
			f.Add(n, shape, uint8(64), int64(n)*7+int64(shape))
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, shape, maxIntervals uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		es := randomEntries(rng, int(n)%6000, shape)
		tl := New(append([]Entry(nil), es...))
		if !sameColumns(tl.Columns(), comparisonNew(es).Columns()) {
			t.Fatal("the columns differ from the comparison sort's")
		}
		if err := tl.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := FromColumns(tl.Columns(), len(es)); err != nil {
			t.Fatal(err)
		}
		if len(tl.Columns().ID) != len(es) {
			t.Fatalf("%d entries indexed, %d given", len(tl.Columns().ID), len(es))
		}
		deadID := make([]bool, len(es))
		ids := tl.Columns().ID
		dead := func(k int) bool { return deadID[ids[k]] }
		for q := 0; q < 64; q++ {
			r := randomRegion(rng, tl, es)
			label := randomLabel(rng, max(int(maxIntervals)%65, 1), int32(2*len(es)+1))
			if got, want := tl.Any(r, label, nil, nil), bruteForce(es, r, label, nil); got != want {
				t.Fatalf("Any(%v, %v) = %v, the scan says %v", r, label, got, want)
			}
			share := []float64{0, 0.5, 0.95}[q%3]
			for i := range deadID {
				deadID[i] = rng.Float64() < share
			}
			if got, want := tl.Any(r, label, dead, nil), bruteForce(es, r, label, deadID); got != want {
				t.Fatalf("Any(%v, %v) over %d%% tombstones = %v, the scan says %v", r, label, int(share*100), got, want)
			}
		}
	})
}

// TestNewDeterministic builds the same entries in shuffled orders: the
// columns must be identical.
func TestNewDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for shape := uint8(0); shape < numShapes; shape++ {
		es := randomEntries(rng, 3000, shape)
		want := New(append([]Entry(nil), es...)).Columns()
		for trial := 0; trial < 3; trial++ {
			rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
			if got := New(append([]Entry(nil), es...)).Columns(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %d: shuffled input gives different columns", shape)
			}
		}
	}
}

// TestAnyCostIndependentOfLabel is the count guard on the tiles: a
// query visits each slab and cell at most once and tests only the
// entries of cells it cuts through, whatever its label. On a miss the
// slabs and cells visited are exactly those r meets, for every label.
func TestAnyCostIndependentOfLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []uint8{shapeUniform, shapeBoxes, shapeHuge} {
		es := randomEntries(rng, 5000, shape)
		tl := New(append([]Entry(nil), es...))
		c := tl.Columns()
		for q := 0; q < 300; q++ {
			r := randomRegion(rng, tl, es)
			var slabs, cells, boundary int64
			for s := 0; s+1 < len(c.SlabCells); s++ {
				if c.SlabX[2*s+1] < r.Min.X || c.SlabX[2*s] > r.Max.X {
					continue
				}
				slabs++
				for cell := c.SlabCells[s]; cell < c.SlabCells[s+1]; cell++ {
					box := geom.NewRect(c.CellMBR[4*cell], c.CellMBR[4*cell+1], c.CellMBR[4*cell+2], c.CellMBR[4*cell+3])
					if !box.Intersects(r) {
						continue
					}
					cells++
					if !r.ContainsRect(box) {
						boundary += int64(c.CellPoints[cell+1] - c.CellPoints[cell])
					}
				}
			}
			for _, maxIntervals := range []int{1, 4, 64} {
				label := randomLabel(rng, maxIntervals, int32(2*len(es)+1))
				var sp trace.Span
				hit := tl.Any(r, label, nil, &sp)
				if sp.IndexNodes > slabs || sp.IndexLeaves > cells || sp.IndexEntries > boundary {
					t.Fatalf("shape %d: Any(%v, %d intervals) visited %d slabs and %d cells and tested %d entries; r meets %d and %d, with %d entries in cells it cuts",
						shape, r, len(label), sp.IndexNodes, sp.IndexLeaves, sp.IndexEntries, slabs, cells, boundary)
				}
				if !hit && (sp.IndexNodes != slabs || sp.IndexLeaves != cells) {
					t.Fatalf("shape %d: miss (%v, %d intervals) visited %d slabs and %d cells; r meets %d and %d",
						shape, r, len(label), sp.IndexNodes, sp.IndexLeaves, slabs, cells)
				}
			}
		}
	}
}

// TestAnyDoesNotAllocate covers both label regimes, over points and
// over extents.
func TestAnyDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range []uint8{shapeUniform, shapeBoxes} {
		es := randomEntries(rng, 5000, shape)
		tl := New(append([]Entry(nil), es...))
		for _, maxIntervals := range []int{1, 64} {
			label := randomLabel(rng, maxIntervals, int32(2*len(es)+1))
			r := geom.NewRect(10, 10, 30, 30)
			if allocs := testing.AllocsPerRun(100, func() { tl.Any(r, label, nil, nil) }); allocs != 0 {
				t.Errorf("shape %d, labels of up to %d intervals: %v allocs per query", shape, maxIntervals, allocs)
			}
		}
	}
}

// TestPointColumnsHoldOneCorner pins the two layouts: a point set's x
// and y columns hold one corner per entry, and one extent among points
// doubles them to carry every entry's max corner after the min corners.
func TestPointColumnsHoldOneCorner(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	es := randomEntries(rng, 300, shapeUniform)
	if c := New(append([]Entry(nil), es...)).Columns(); len(c.X) != len(es) || len(c.Y) != len(es) {
		t.Fatalf("a point set of %d has %d x and %d y", len(es), len(c.X), len(c.Y))
	}
	es[7].Box.Max.X += 1
	c := New(append([]Entry(nil), es...)).Columns()
	if len(c.X) != 2*len(es) || len(c.Y) != 2*len(es) {
		t.Fatalf("an extent among %d entries gives %d x and %d y", len(es), len(c.X), len(c.Y))
	}
	for k, id := range c.ID {
		want := es[id].Box
		if got := geom.NewRect(c.X[k], c.Y[k], c.X[len(es)+k], c.Y[len(es)+k]); got != want {
			t.Fatalf("entry %d (id %d) spans %v, want %v", k, id, got, want)
		}
	}
}

// TestFromColumnsRejects damages each structural property FromColumns
// guards, over a point set and over extents; each must be an error, not
// a later out-of-range index.
func TestFromColumnsRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []uint8{shapeUniform, shapeBoxes} {
		es := randomEntries(rng, 500, shape)
		good := New(es).Columns()
		clone := func() Columns {
			c := good
			c.SlabX = append([]float64(nil), c.SlabX...)
			c.SlabCells = append([]uint32(nil), c.SlabCells...)
			c.CellMBR = append([]float64(nil), c.CellMBR...)
			c.CellPoints = append([]uint32(nil), c.CellPoints...)
			c.Post, c.ID = append([]int32(nil), c.Post...), append([]int32(nil), c.ID...)
			return c
		}
		for name, damage := range map[string]func(c *Columns){
			"odd slab bounds":     func(c *Columns) { c.SlabX = c.SlabX[1:] },
			"slab offsets":        func(c *Columns) { c.SlabCells = c.SlabCells[1:] },
			"empty slab":          func(c *Columns) { c.SlabCells[1] = 0 },
			"slab offsets end":    func(c *Columns) { c.SlabCells[len(c.SlabCells)-1]++ },
			"cell bounds":         func(c *Columns) { c.CellMBR = c.CellMBR[4:] },
			"falling offsets":     func(c *Columns) { c.CellPoints[2] = c.CellPoints[1] - 1 },
			"cell offsets end":    func(c *Columns) { c.CellPoints[len(c.CellPoints)-1]-- },
			"short y column":      func(c *Columns) { c.Y = c.Y[1:] },
			"short x and y":       func(c *Columns) { c.X, c.Y = c.X[1:], c.Y[1:] },
			"one corner too many": func(c *Columns) { c.X, c.Y = append(c.X, 0), append(c.Y, 0) },
			"short post column":   func(c *Columns) { c.Post = c.Post[1:] },
			"short id column":     func(c *Columns) { c.ID = c.ID[1:] },
			"id out of range":     func(c *Columns) { c.ID[3] = int32(len(es)) },
			"negative id":         func(c *Columns) { c.ID[3] = -1 },
		} {
			c := clone()
			damage(&c)
			if _, err := FromColumns(c, len(es)); err == nil {
				t.Errorf("shape %d, %s: accepted", shape, name)
			}
		}
		if _, err := FromColumns(clone(), len(es)); err != nil {
			t.Fatal(err)
		}
	}
}
