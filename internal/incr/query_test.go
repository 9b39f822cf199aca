package incr

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/trace"
)

// fragmentedIndex builds the state the update stream drives a giant
// component into, in miniature: a user whose label is dozens of
// intervals — fresh posts are handed out in arrival order, and the user
// follows only every other new venue — over base tiles that hold
// some of those venues, a few hundred overlay entries and a few dozen
// tombstones. Everything the user reaches lies at x < 40; venues it
// does not reach, in the base and in the overlay, fill x > 60.
func fragmentedIndex(t *testing.T) (x *Index, user int) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	x = New(dataset.Prepare(randomNetwork(rng, 400, 300)), Options{OverlayMin: 1 << 20})
	user = x.AddUser()
	grow := func(n int) {
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				v := x.AddVenue(rng.Float64()*40, rng.Float64()*100)
				if err := x.AddEdge(user, v); err != nil {
					t.Fatal(err)
				}
			} else {
				x.AddVenue(60+rng.Float64()*40, rng.Float64()*100)
			}
		}
	}
	grow(200)
	x.foldBase()
	grow(400)
	for v, moved := 0, 0; moved < 40; v++ {
		if x.spatial.at(int32(v)) && x.basePos[v] >= 0 && !x.dead.at(x.basePos[v]) && x.geo[v].Min.X > 60 {
			if err := x.MoveVenue(v, 60+rng.Float64()*40, rng.Float64()*100); err != nil {
				t.Fatal(err)
			}
			moved++
		}
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(x.labels.at(x.comp.at(int32(user)))); n < 32 {
		t.Fatalf("label has %d intervals, want at least 32", n)
	}
	if x.ov.n < 256 || x.tombs == 0 {
		t.Fatalf("%d overlay entries and %d tombstones, want at least 256 and some", x.ov.n, x.tombs)
	}
	return x, user
}

// TestProbeCostIndependentOfLabelFragmentation is the count-based guard
// on the read path: on a miss, the base walk visits no more slabs and
// cells, and x/y-tests no more points, than the label-blind walk of the
// same region, and the overlay tests no more entries than the grid cells
// r meets hold, however many intervals the label has. The counts repeat
// exactly, so the per-interval product (intervals × entries) cannot
// come back unnoticed.
func TestProbeCostIndependentOfLabelFragmentation(t *testing.T) {
	x, user := fragmentedIndex(t)
	miss := geom.NewRect(60, 0, 100, 100)
	label := x.labels.at(x.comp.at(int32(user)))

	// The label-blind walk: the slabs and cells r meets, and the points
	// of the cells it cuts through.
	c := x.base.Columns()
	var slabs, cells, points int64
	for s := 0; s+1 < len(c.SlabCells); s++ {
		if c.SlabX[2*s+1] < miss.Min.X || c.SlabX[2*s] > miss.Max.X {
			continue
		}
		slabs++
		for cell := c.SlabCells[s]; cell < c.SlabCells[s+1]; cell++ {
			box := geom.NewRect(c.CellMBR[4*cell], c.CellMBR[4*cell+1], c.CellMBR[4*cell+2], c.CellMBR[4*cell+3])
			if box.Intersects(miss) {
				cells++
				if !miss.ContainsRect(box) {
					points += int64(c.CellPoints[cell+1] - c.CellPoints[cell])
				}
			}
		}
	}
	x0, y0, x1, y1 := x.grid.cellRange(miss)
	var inCells int64
	for y := y0; y <= y1; y++ {
		if row := x.ov.rows[y]; row != nil {
			inCells += int64(row.start[x1+1] - row.start[x0])
		}
	}
	if cells == 0 || inCells == 0 {
		t.Fatal("the region holds no base cells or no overlay entries; the guard would be vacuous")
	}

	var sp trace.Span
	if x.RangeReachTraced(user, miss, &sp) {
		t.Fatal("the user reaches nothing at x > 60")
	}
	if sp.Labels != int64(len(label)) {
		t.Errorf("Labels = %d, want the label's %d intervals", sp.Labels, len(label))
	}
	if sp.IndexNodes != slabs || sp.IndexLeaves != cells || sp.IndexEntries-sp.Overlay > points {
		t.Errorf("visited %d slabs and %d cells and tested %d points; the label-blind walk visits %d and %d and tests %d",
			sp.IndexNodes, sp.IndexLeaves, sp.IndexEntries-sp.Overlay, slabs, cells, points)
	}
	if sp.Overlay > inCells {
		t.Errorf("tested %d overlay entries, more than the %d in the region's grid cells", sp.Overlay, inCells)
	}

	var again trace.Span
	x.Snapshot().RangeReachTraced(user, miss, &again)
	if again.Counters != sp.Counters {
		t.Errorf("snapshot counters %+v differ from the index's %+v", again.Counters, sp.Counters)
	}
	if !x.RangeReach(user, geom.NewRect(0, 0, 40, 100)) {
		t.Error("the user reaches venues at x < 40")
	}
}

// TestOverlayProbeCostIndependentOfOverlaySize: a probe tests the
// overlay entries of the grid cells its region meets, not the overlay.
// A user reaches eight venues just outside the region, in the cells on
// its edge, and 1k or 16k more far from it, all in the overlay; the
// probe misses, testing the same eight entries either way.
func TestOverlayProbeCostIndependentOfOverlaySize(t *testing.T) {
	// Two venues pin the grid to [0, 128]², cells 2 wide.
	corners := &dataset.Network{
		Name:    "corners",
		Graph:   graph.FromEdges(2, nil),
		Spatial: []bool{true, true},
		Points:  []geom.Point{geom.Pt(0, 0), geom.Pt(128, 128)},
	}
	region := geom.NewRect(21, 21, 29, 29) // cells 10..14 on each axis
	probe := func(far int) trace.Counters {
		x := New(dataset.Prepare(corners), Options{OverlayMin: 1 << 30})
		user := x.AddUser()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 8+far; i++ {
			px, py := 20.5, 21+float64(i) // cell 10, left of the region
			if i >= 8 {
				px, py = 70+rng.Float64()*58, rng.Float64()*128
			}
			if err := x.AddEdge(user, x.AddVenue(px, py)); err != nil {
				t.Fatal(err)
			}
		}
		snap := x.Snapshot()
		if got := snap.q.ov.n; got != 8+far {
			t.Fatalf("%d overlay entries, want %d", got, 8+far)
		}
		var sp trace.Span
		if snap.RangeReachTraced(user, region, &sp) {
			t.Fatal("the user reaches no venue in the region")
		}
		return sp.Counters
	}
	small, large := probe(1<<10), probe(1<<14)
	if small.Overlay != 8 || large != small {
		t.Errorf("with 1k entries elsewhere the probe counts %+v, with 16k %+v; want 8 overlay entries tested both times", small, large)
	}
}

// TestSnapshotRangeReachDoesNotAllocate covers the untraced read path
// under tombstones, for a one-interval label and a fragmented one, hit
// and miss.
func TestSnapshotRangeReachDoesNotAllocate(t *testing.T) {
	x, user := fragmentedIndex(t)
	venue := 0
	for !x.spatial.at(int32(venue)) || len(x.labels.at(x.comp.at(int32(venue)))) != 1 {
		venue++
	}
	at := x.geo[venue]
	snap := x.Snapshot()
	for name, q := range map[string]struct {
		v    int
		r    geom.Rect
		want bool
	}{
		"one-interval hit":  {venue, at, true},
		"one-interval miss": {venue, geom.NewRect(at.Min.X+0.5, 0, at.Min.X+0.6, 100), false},
		"fragmented hit":    {user, geom.NewRect(0, 0, 40, 100), true},
		"fragmented miss":   {user, geom.NewRect(60, 0, 100, 100), false},
	} {
		if got := snap.RangeReach(q.v, q.r); got != q.want {
			t.Errorf("%s: RangeReach = %v, want %v", name, got, q.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { snap.RangeReach(q.v, q.r) }); allocs != 0 {
			t.Errorf("%s: %v allocs per query, want 0", name, allocs)
		}
	}
}
