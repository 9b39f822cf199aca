package georeach

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

func wantValidateErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("want error containing %q, got: %v", substr, err)
	}
}

func TestValidateRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		net := randomNetwork(rng, 2+rng.Intn(25), 1+rng.Intn(20))
		prep := dataset.Prepare(net)
		params := []Params{
			{},
			{MaxReachGrids: 1, MergeCount: 1, Levels: 3},
			{MaxRMBRFraction: 0.01, MaxReachGrids: 2, Levels: 5},
		}
		idx := Build(prep, params[trial%len(params)])
		if err := idx.Validate(); err != nil {
			t.Fatalf("trial %d: fresh SPA-Graph rejected: %v", trial, err)
		}
		loaded, err := reassembled(prep, idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Validate(); err != nil {
			t.Fatalf("trial %d: reloaded SPA-Graph rejected: %v", trial, err)
		}
	}
}

// collinearIndex builds the parity fuzzer's regression shape: all
// venues on the line x=6, which degenerates the grid space.
func collinearIndex(t *testing.T) *Index {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	net := &dataset.Network{
		Name:    "collinear",
		Graph:   b.Build(),
		Spatial: []bool{false, false, true, true},
		Points:  []geom.Point{{}, {}, geom.Pt(6, 6), geom.Pt(6, 49)},
	}
	return Build(dataset.Prepare(net), Params{})
}

func TestValidateCollinearSpace(t *testing.T) {
	// Before the degenerate-axis fix in grid.NewHierarchy, the space
	// excluded the real points and this failed with "outside the grid
	// space".
	idx := collinearIndex(t)
	if err := idx.Validate(); err != nil {
		t.Fatalf("collinear SPA-Graph rejected: %v", err)
	}
}

// setCells replaces v's key run, retiling the offsets behind it.
func setCells(idx *Index, v int, run []uint64) {
	lo, hi := idx.gridOff[v], idx.gridOff[v+1]
	idx.gridKeys = slices.Concat(idx.gridKeys[:lo], run, idx.gridKeys[hi:])
	for u := v + 1; u < len(idx.gridOff); u++ {
		idx.gridOff[u] += uint64(len(run)) - (hi - lo)
	}
}

func setRMBR(idx *Index, v int, r geom.Rect) {
	copy(idx.rmbr[4*v:], []float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y})
}

func TestValidateCorruptions(t *testing.T) {
	comp := func(idx *Index, orig int) int { return int(idx.prep.CompOf(orig)) }

	t.Run("geoB cleared", func(t *testing.T) {
		idx := collinearIndex(t)
		idx.flags[2*comp(idx, 3)+1] = 0
		wantValidateErr(t, idx.Validate(), "GeoB unset")
	})
	t.Run("geoB not monotone", func(t *testing.T) {
		idx := collinearIndex(t)
		v := comp(idx, 1)
		idx.flags[2*v], idx.flags[2*v+1] = uint8(BVertex), 0
		setCells(idx, v, nil)
		wantValidateErr(t, idx.Validate(), "not monotone")
	})
	t.Run("missing cell", func(t *testing.T) {
		idx := collinearIndex(t)
		v := comp(idx, 3)
		if idx.kindOf(v) != GVertex {
			t.Skipf("component is kind %d, not G", idx.kindOf(v))
		}
		setCells(idx, v, idx.cells(v)[1:])
		wantValidateErr(t, idx.Validate(), "ReachGrid")
	})
	t.Run("shrunken RMBR", func(t *testing.T) {
		// Downgrade every spatial-reaching component to R consistently,
		// then shrink one RMBR away from its member.
		idx := collinearIndex(t)
		big := geom.NewRect(-100, -100, 100, 100)
		for v := 0; v < idx.prep.NumComponents(); v++ {
			if idx.reaches(v) {
				idx.flags[2*v] = uint8(RVertex)
				setCells(idx, v, nil)
				setRMBR(idx, v, big)
			}
		}
		setRMBR(idx, comp(idx, 3), geom.NewRect(-10, -10, -9, -9))
		wantValidateErr(t, idx.Validate(), "RMBR")
	})
}
