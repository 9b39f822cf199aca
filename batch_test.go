package rangereach_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	rangereach "repro"
)

func batchNetwork(t *testing.T) *rangereach.Network {
	t.Helper()
	return rangereach.GenerateSynthetic(rangereach.SyntheticConfig{
		Name: "batch", Users: 500, Venues: 300, AvgFriends: 4, AvgCheckins: 2,
		CoreFraction: 0.5, Seed: 77,
	})
}

func randomQueries(net *rangereach.Network, n int, seed int64) []rangereach.Query {
	rng := rand.New(rand.NewSource(seed))
	space := net.Space()
	qs := make([]rangereach.Query, n)
	for i := range qs {
		w := rng.Float64() * (space.MaxX - space.MinX) / 3
		h := rng.Float64() * (space.MaxY - space.MinY) / 3
		x := space.MinX + rng.Float64()*(space.MaxX-space.MinX-w)
		y := space.MinY + rng.Float64()*(space.MaxY-space.MinY-h)
		qs[i] = rangereach.Query{
			Vertex: rng.Intn(net.NumVertices()),
			Region: rangereach.NewRect(x, y, x+w, y+h),
		}
	}
	return qs
}

// TestBatchMatchesSequential exercises every method concurrently, and
// a dynamic snapshot whose updates left overlay entries and tombstones,
// at one worker and at eight; run with -race to validate thread safety
// of the engines.
func TestBatchMatchesSequential(t *testing.T) {
	net := batchNetwork(t)
	qs := randomQueries(net, 300, 5)
	for _, m := range rangereach.Methods {
		idx := net.MustBuild(m)
		want := idx.RangeReachBatch(qs, 1)
		got := idx.RangeReachBatch(qs, 8)
		for i := range qs {
			if got[i] != want[i] {
				t.Fatalf("%v: parallel result %d differs", m, i)
			}
		}
	}

	snap := updatedSnapshot(t, net)
	for _, par := range []int{1, 8} {
		got, err := snap.RangeReachBatchContext(context.Background(), qs, par)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if want := snap.RangeReach(q.Vertex, q.Region); got[i] != want {
				t.Fatalf("snapshot, parallelism %d: batch result %d is %v, the query alone says %v", par, i, got[i], want)
			}
		}
	}
}

// updatedSnapshot builds the dynamic index over net, moves some venues,
// adds one and links users to it, and returns a snapshot of the result:
// one whose answers come from tombstoned base tiles and the overlay.
func updatedSnapshot(t *testing.T, net *rangereach.Network) *rangereach.DynamicSnapshot {
	t.Helper()
	dyn := net.BuildDynamic()
	sp := net.Space()
	moved := 0
	for v := 0; v < net.NumVertices() && moved < 20; v++ {
		if net.IsSpatial(v) {
			if err := dyn.MoveVenue(v, sp.MinX+float64(moved)*(sp.MaxX-sp.MinX)/20, sp.MinY); err != nil {
				t.Fatal(err)
			}
			moved++
		}
	}
	venue := dyn.AddVenue((sp.MinX+sp.MaxX)/2, (sp.MinY+sp.MaxY)/2)
	for u := 0; u < 10; u++ {
		if !net.IsSpatial(u) {
			if err := dyn.AddEdge(u, venue); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := dyn.UpdateStats(); st.OverlayLen == 0 || st.StaleLen == 0 {
		t.Fatalf("the updates left %d overlay entries and %d tombstones; want both", st.OverlayLen, st.StaleLen)
	}
	return dyn.Snapshot()
}

func TestBatchEdgeCases(t *testing.T) {
	net := batchNetwork(t)
	idx := net.MustBuild(rangereach.ThreeDReach)
	if out := idx.RangeReachBatch(nil, 4); len(out) != 0 {
		t.Error("empty batch returned results")
	}
	one := randomQueries(net, 1, 9)
	if out := idx.RangeReachBatch(one, 100); len(out) != 1 {
		t.Error("single-query batch wrong")
	}
	// Default parallelism path.
	many := randomQueries(net, 50, 11)
	if out := idx.RangeReachBatch(many, 0); len(out) != 50 {
		t.Error("default parallelism wrong")
	}
}

// TestBatchContextCancel pins the cancellation contract: a dead
// context aborts the batch, an index's or a snapshot's, with its error;
// a live one yields exactly the RangeReachBatch answers.
func TestBatchContextCancel(t *testing.T) {
	net := batchNetwork(t)
	idx := net.MustBuild(rangereach.ThreeDReach)
	qs := randomQueries(net, 200, 13)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snap := updatedSnapshot(t, net)
	for _, par := range []int{1, 4} {
		if out, err := idx.RangeReachBatchContext(ctx, qs, par); err != context.Canceled || out != nil {
			t.Fatalf("parallelism %d: canceled batch returned (%v, %v), want (nil, context.Canceled)", par, out, err)
		}
		if out, err := snap.RangeReachBatchContext(ctx, qs, par); err != context.Canceled || out != nil {
			t.Fatalf("parallelism %d: canceled snapshot batch returned (%v, %v), want (nil, context.Canceled)", par, out, err)
		}
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := idx.RangeReachBatchContext(expired, qs, 4); err != context.DeadlineExceeded {
		t.Fatalf("expired batch returned %v, want context.DeadlineExceeded", err)
	}

	want := idx.RangeReachBatch(qs, 1)
	got, err := idx.RangeReachBatchContext(context.Background(), qs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("live-context result %d differs", i)
		}
	}
}
