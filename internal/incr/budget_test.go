package incr

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// TestPatchBudgetCostIndependentOfLabelBloat is the count guard on the
// work budget. A user u checks into every other fresh venue, one epoch
// at a time, until its label holds bloat intervals. Then one epoch adds
// users that each follow u: every insert merges u's whole label into
// the follower's, so the epoch's patch work grows with the label, and
// without the rule it would reach followers·bloat. With the rule the
// work counted before the epoch switches to rebuilding stays within
// the budget plus one step, the widest merge, at both sizes; the read
// that ends the epoch rebuilds once and leaves u's label dense.
func TestPatchBudgetCostIndependentOfLabelBloat(t *testing.T) {
	for _, bloat := range []int{128, 512} {
		x := New(dataset.Prepare(&dataset.Network{
			Name:    "bloat",
			Graph:   graph.FromEdges(2, [][2]int{{0, 1}}),
			Spatial: []bool{false, true},
			Points:  []geom.Point{{}, geom.Pt(50, 50)},
		}), Options{})
		const u = 0
		for len(x.labels.at(x.comp.at(u))) < bloat {
			// Fresh posts go out in arrival order, so skipping every
			// other venue adds an interval to u's label.
			v := x.AddVenue(10, 10)
			x.AddVenue(90, 90)
			if err := x.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			x.Snapshot()
		}
		if s := x.Stats(); s.FullRebuilds != 0 {
			t.Fatalf("bloat %d: the label-building epochs rebuilt: %+v", bloat, s)
		}
		step := len(x.labels.at(x.comp.at(u))) + 2
		for followers := 0; !x.dirty; followers++ {
			if followers == 4*bloat {
				t.Fatalf("bloat %d: %d followers patched %d units of work and never passed the budget of %d",
					bloat, followers, x.work, x.budget())
			}
			if err := x.AddEdge(x.AddUser(), u); err != nil {
				t.Fatal(err)
			}
			if limit := x.budget() + step; x.work > limit {
				t.Fatalf("bloat %d: %d followers patched %d units of work, past the budget plus one step (%d)",
					bloat, followers+1, x.work, limit)
			}
		}
		x.Snapshot()
		if s := x.Stats(); s.FullRebuilds != 1 || s.MaxLabelIntervals >= bloat {
			t.Errorf("bloat %d: the read after the switch should rebuild once and densify the labels: %+v", bloat, s)
		}
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsMidEpochIsWhatAReadSees: once an epoch has run out of
// budget its patches are abandoned, and Stats must not report the
// abandoned sizes. It runs the read's own ensure, so the live
// components, the widest label and the overlay it reports mid-epoch
// are those a Snapshot then shows.
func TestStatsMidEpochIsWhatAReadSees(t *testing.T) {
	const users = 12
	var edges [][2]int
	for u := 0; u+1 < users; u++ {
		edges = append(edges, [2]int{u, u + 1})
	}
	edges = append(edges, [2]int{users - 1, users})
	x := New(dataset.Prepare(&dataset.Network{
		Name:    "chain",
		Graph:   graph.FromEdges(users+1, edges),
		Spatial: append(make([]bool, users), true),
		Points:  append(make([]geom.Point, users), geom.Pt(50, 50)),
	}), Options{budget: 1})
	// Close the chain into one cycle, then check in every other user to
	// a venue of their own: the epoch runs out of budget on the way.
	if err := x.AddEdge(users-1, 0); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users; u += 2 {
		if err := x.AddEdge(u, x.AddVenue(float64(u), float64(u))); err != nil {
			t.Fatal(err)
		}
	}
	if !x.dirty {
		t.Fatal("the epoch kept within its budget: the test cannot see abandoned sizes")
	}
	mid := x.Stats()
	x.Snapshot()
	after := x.Stats()
	if mid.LiveComps != after.LiveComps || mid.MaxLabelIntervals != after.MaxLabelIntervals || mid.OverlayLen != after.OverlayLen {
		t.Fatalf("mid-epoch Stats reports %d live components, a widest label of %d intervals and %d overlay entries; a read sees %d, %d and %d",
			mid.LiveComps, mid.MaxLabelIntervals, mid.OverlayLen, after.LiveComps, after.MaxLabelIntervals, after.OverlayLen)
	}
}
