package tiles

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/trace"
)

// Point-set shapes for randomPoints.
const (
	shapeGrid    = iota // integer coordinates on a 20×20 grid: shared x, y and edges
	shapeDup            // pairs of identical locations
	shapeOneX           // every point on x = 7
	shapeUniform        // continuous coordinates
	numShapes
)

// randomPoints draws n points with distinct ids and posts in [1, 2n].
func randomPoints(rng *rand.Rand, n int, shape uint8) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := Point{X: float64(rng.Intn(20)), Y: float64(rng.Intn(20)), Post: 1 + int32(rng.Intn(2*n)), ID: int32(i)}
		switch shape % numShapes {
		case shapeDup:
			if i%2 == 1 {
				p.X, p.Y = pts[i-1].X, pts[i-1].Y
			}
		case shapeOneX:
			p.X = 7
		case shapeUniform:
			p.X, p.Y = rng.Float64()*100, rng.Float64()*100
		}
		pts[i] = p
	}
	return pts
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

// randomRegion draws regions whose edges fall exactly on point
// coordinates and on cell bounds as often as anywhere else.
func randomRegion(rng *rand.Rand, t *Tiles, pts []Point) geom.Rect {
	c := t.Columns()
	switch {
	case len(pts) > 0 && rng.Intn(3) == 0:
		a, b := pts[rng.Intn(len(pts))], pts[rng.Intn(len(pts))]
		return geom.NewRect(a.X, a.Y, b.X, b.Y)
	case len(c.CellMBR) > 0 && rng.Intn(2) == 0:
		a, b := 4*rng.Intn(len(c.CellMBR)/4), 4*rng.Intn(len(c.CellMBR)/4)
		return geom.NewRect(c.CellMBR[a], c.CellMBR[a+1], c.CellMBR[b+2], c.CellMBR[b+3])
	default:
		x, y := rng.Float64()*110-5, rng.Float64()*110-5
		return geom.NewRect(x, y, x+rng.Float64()*40, y+rng.Float64()*40)
	}
}

// bruteForce scans the points, skipping those whose id deadID marks
// (nil marks none).
func bruteForce(pts []Point, r geom.Rect, label intervals.Set, deadID []bool) bool {
	for _, p := range pts {
		if r.ContainsPoint(geom.Pt(p.X, p.Y)) && label.ContainsCanonical(p.Post) && (deadID == nil || !deadID[p.ID]) {
			return true
		}
	}
	return false
}

// FuzzTiles checks Any against a scan of the points, without a filter
// and under tombstones that mark none, half or nearly all of them dead,
// and the built tiles against Validate and FromColumns. The seeds cover
// 0, 1, 31, 32, 33 and 5,000 points; duplicate locations and a single
// shared x; regions edged on point coordinates and on cell bounds;
// labels of 1 to 64 intervals.
func FuzzTiles(f *testing.F) {
	for _, n := range []uint16{0, 1, 31, 32, 33, 5000} {
		for shape := uint8(0); shape < numShapes; shape++ {
			f.Add(n, shape, uint8(1), int64(n)+int64(shape))
			f.Add(n, shape, uint8(64), int64(n)*7+int64(shape))
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, shape, maxIntervals uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, int(n)%6000, shape)
		tl := New(append([]Point(nil), pts...))
		if err := tl.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := FromColumns(tl.Columns(), len(pts)); err != nil {
			t.Fatal(err)
		}
		if len(tl.Columns().X) != len(pts) {
			t.Fatalf("%d points indexed, %d given", len(tl.Columns().X), len(pts))
		}
		deadID := make([]bool, len(pts))
		ids := tl.Columns().ID
		dead := func(k int) bool { return deadID[ids[k]] }
		for q := 0; q < 64; q++ {
			r := randomRegion(rng, tl, pts)
			label := randomLabel(rng, max(int(maxIntervals)%65, 1), int32(2*len(pts)+1))
			if got, want := tl.Any(r, label, nil, nil), bruteForce(pts, r, label, nil); got != want {
				t.Fatalf("Any(%v, %v) = %v, the scan says %v", r, label, got, want)
			}
			share := []float64{0, 0.5, 0.95}[q%3]
			for i := range deadID {
				deadID[i] = rng.Float64() < share
			}
			if got, want := tl.Any(r, label, dead, nil), bruteForce(pts, r, label, deadID); got != want {
				t.Fatalf("Any(%v, %v) over %d%% tombstones = %v, the scan says %v", r, label, int(share*100), got, want)
			}
		}
	})
}

// TestNewDeterministic builds the same points in shuffled orders: the
// columns must be identical.
func TestNewDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for shape := uint8(0); shape < numShapes; shape++ {
		pts := randomPoints(rng, 3000, shape)
		want := New(append([]Point(nil), pts...)).Columns()
		for trial := 0; trial < 3; trial++ {
			rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			if got := New(append([]Point(nil), pts...)).Columns(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %d: shuffled input gives different columns", shape)
			}
		}
	}
}

// TestAnyCostIndependentOfLabel is the count guard on the point index:
// a query visits each slab and cell at most once and x/y-tests only the
// points of cells it cuts through, whatever its label. On a miss the
// slabs and cells visited are exactly those r meets, for every label.
func TestAnyCostIndependentOfLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 5000, shapeUniform)
	tl := New(append([]Point(nil), pts...))
	c := tl.Columns()
	for q := 0; q < 300; q++ {
		r := randomRegion(rng, tl, pts)
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
			label := randomLabel(rng, maxIntervals, int32(2*len(pts)+1))
			var sp trace.Span
			hit := tl.Any(r, label, nil, &sp)
			if sp.IndexNodes > slabs || sp.IndexLeaves > cells || sp.IndexEntries > boundary {
				t.Fatalf("Any(%v, %d intervals) visited %d slabs and %d cells and tested %d points; r meets %d and %d, with %d points in cells it cuts",
					r, len(label), sp.IndexNodes, sp.IndexLeaves, sp.IndexEntries, slabs, cells, boundary)
			}
			if !hit && (sp.IndexNodes != slabs || sp.IndexLeaves != cells) {
				t.Fatalf("miss (%v, %d intervals) visited %d slabs and %d cells; r meets %d and %d",
					r, len(label), sp.IndexNodes, sp.IndexLeaves, slabs, cells)
			}
		}
	}
}

// TestAnyDoesNotAllocate covers both label regimes.
func TestAnyDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 5000, shapeUniform)
	tl := New(append([]Point(nil), pts...))
	for _, maxIntervals := range []int{1, 64} {
		label := randomLabel(rng, maxIntervals, int32(2*len(pts)+1))
		r := geom.NewRect(10, 10, 30, 30)
		if allocs := testing.AllocsPerRun(100, func() { tl.Any(r, label, nil, nil) }); allocs != 0 {
			t.Errorf("labels of up to %d intervals: %v allocs per query", maxIntervals, allocs)
		}
	}
}

// TestFromColumnsRejects damages each structural property FromColumns
// guards; each must be an error, not a later out-of-range index.
func TestFromColumnsRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randomPoints(rng, 500, shapeUniform)
	good := New(pts).Columns()
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
		"odd slab bounds":   func(c *Columns) { c.SlabX = c.SlabX[1:] },
		"slab offsets":      func(c *Columns) { c.SlabCells = c.SlabCells[1:] },
		"empty slab":        func(c *Columns) { c.SlabCells[1] = 0 },
		"slab offsets end":  func(c *Columns) { c.SlabCells[len(c.SlabCells)-1]++ },
		"cell bounds":       func(c *Columns) { c.CellMBR = c.CellMBR[4:] },
		"falling offsets":   func(c *Columns) { c.CellPoints[2] = c.CellPoints[1] - 1 },
		"cell offsets end":  func(c *Columns) { c.CellPoints[len(c.CellPoints)-1]-- },
		"short y column":    func(c *Columns) { c.Y = c.Y[1:] },
		"short post column": func(c *Columns) { c.Post = c.Post[1:] },
		"short id column":   func(c *Columns) { c.ID = c.ID[1:] },
		"id out of range":   func(c *Columns) { c.ID[3] = int32(len(pts)) },
		"negative id":       func(c *Columns) { c.ID[3] = -1 },
	} {
		c := clone()
		damage(&c)
		if _, err := FromColumns(c, len(pts)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FromColumns(clone(), len(pts)); err != nil {
		t.Fatal(err)
	}
}
