package incr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// fragmentedIndex builds the state the update stream drives a giant
// component into, in miniature: a user whose label is dozens of
// intervals — fresh posts are handed out in arrival order, and the user
// follows only every other new venue — over a base tree that holds
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
		if x.spatial.at(int32(v)) && x.inBase[v] && x.geo[v].Min.X > 60 {
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
	if len(x.overlay) < 256 || len(x.stale) == 0 {
		t.Fatalf("%d overlay entries and %d tombstones, want at least 256 and some", len(x.overlay), len(x.stale))
	}
	return x, user
}

// TestProbeCostIndependentOfLabelFragmentation is the count-based guard
// on the read path: a miss tests each overlay entry once and expands
// each base node at most once however many intervals the label has.
// The bound on the base side is the label-blind 2D search of the same
// region, which expands a superset of the nodes. The counts repeat
// exactly, so the per-interval product (intervals × overlay entries)
// cannot come back unnoticed.
func TestProbeCostIndependentOfLabelFragmentation(t *testing.T) {
	x, user := fragmentedIndex(t)
	miss := geom.NewRect(60, 0, 100, 100)
	label := x.labels.at(x.comp.at(int32(user)))

	var flat trace.Span
	x.base.SearchTraced(geom.Box3FromRect(miss, math.Inf(-1), math.Inf(1)), &flat, func(rtree.Entry[geom.Box3]) bool { return true })
	if flat.IndexEntries == 0 {
		t.Fatal("the region holds no base entries; the guard would be vacuous")
	}

	var sp trace.Span
	if x.RangeReachTraced(user, miss, &sp) {
		t.Fatal("the user reaches nothing at x > 60")
	}
	if sp.Labels != int64(len(label)) {
		t.Errorf("Labels = %d, want the label's %d intervals", sp.Labels, len(label))
	}
	if sp.IndexNodes == 0 || sp.IndexNodes > flat.IndexNodes || sp.IndexLeaves > flat.IndexLeaves {
		t.Errorf("expanded %d nodes + %d leaves, the 2D search of the region %d + %d",
			sp.IndexNodes, sp.IndexLeaves, flat.IndexNodes, flat.IndexLeaves)
	}
	if limit := flat.IndexEntries + int64(len(x.overlay)); sp.IndexEntries > limit || sp.IndexEntries < int64(len(x.overlay)) {
		t.Errorf("tested %d entries, want between the overlay's %d and %d (each overlay entry and each base entry of the region once)",
			sp.IndexEntries, len(x.overlay), limit)
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

// TestSnapshotRangeReachDoesNotAllocate covers the untraced read path
// on both base searches: the single cuboid of a one-interval label and
// the label-pruned traversal of a fragmented one, hit and miss.
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
