package rangereach_test

import (
	"math/rand"
	"sync"
	"testing"

	rangereach "repro"
)

// TestConcurrentBatchAndStats hammers RangeReachBatch on every static
// method from several goroutines while another goroutine polls Stats(),
// asserting results stay identical to a serial evaluation. Run under
// -race (ci.sh does) this pins down the static read path's lock-free
// concurrency contract.
func TestConcurrentBatchAndStats(t *testing.T) {
	net := rangereach.GenerateSynthetic(rangereach.SyntheticConfig{
		Name: "concurrent", Users: 250, Venues: 120,
		AvgFriends: 4, AvgCheckins: 3, Clusters: 4, Seed: 11,
	})
	space := net.Space()
	rng := rand.New(rand.NewSource(5))
	queries := make([]rangereach.Query, 300)
	for i := range queries {
		w := (space.MaxX - space.MinX) * (0.05 + 0.25*rng.Float64())
		h := (space.MaxY - space.MinY) * (0.05 + 0.25*rng.Float64())
		x := space.MinX + rng.Float64()*(space.MaxX-space.MinX-w)
		y := space.MinY + rng.Float64()*(space.MaxY-space.MinY-h)
		queries[i] = rangereach.Query{
			Vertex: rng.Intn(net.NumVertices()),
			Region: rangereach.NewRect(x, y, x+w, y+h),
		}
	}

	for _, m := range rangereach.Methods {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			idx, err := net.Build(m)
			if err != nil {
				t.Fatal(err)
			}
			want := idx.RangeReachBatch(queries, 1) // serial reference

			stop := make(chan struct{})
			var statsWG sync.WaitGroup
			statsWG.Add(1)
			go func() {
				defer statsWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if st := idx.Stats(); st.Method != m {
						t.Errorf("Stats().Method = %v, want %v", st.Method, m)
						return
					}
				}
			}()

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						got := idx.RangeReachBatch(queries, 4)
						for i := range got {
							if got[i] != want[i] {
								t.Errorf("concurrent batch diverged at query %d: got %v, want %v", i, got[i], want[i])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			statsWG.Wait()
		})
	}
}

// TestDynamicSnapshot verifies snapshots are immutable point-in-time
// views: updates after Snapshot() are invisible to it, and a snapshot
// answers concurrently while the writer keeps updating.
func TestDynamicSnapshot(t *testing.T) {
	net := figure1(t)
	idx := net.BuildDynamic()
	region := rangereach.NewRect(60, 55, 90, 95)

	before := idx.Snapshot()
	if before.NumVertices() != net.NumVertices() {
		t.Fatalf("snapshot NumVertices = %d, want %d", before.NumVertices(), net.NumVertices())
	}
	if !before.RangeReach(0, region) || before.RangeReach(2, region) {
		t.Fatal("snapshot disagrees with index before updates")
	}

	// Mutate: c (2) checks in at a new venue inside the region.
	venue := idx.AddVenue(75, 70)
	if err := idx.AddEdge(2, venue); err != nil {
		t.Fatal(err)
	}
	if !idx.RangeReach(2, region) {
		t.Fatal("live index should see the update")
	}
	if before.RangeReach(2, region) {
		t.Error("old snapshot sees an update made after capture")
	}
	after := idx.Snapshot()
	if !after.RangeReach(2, region) {
		t.Error("new snapshot misses the update")
	}

	// Readers on a snapshot race-free while the writer keeps going.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !after.RangeReach(2, region) {
					t.Error("snapshot answer changed")
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		v := idx.AddVenue(float64(i), float64(i))
		if err := idx.AddEdge(0, v); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()

	if after.NumVertices() != 13 {
		t.Errorf("snapshot NumVertices drifted to %d, want 13", after.NumVertices())
	}
	if idx.NumVertices() != 63 {
		t.Errorf("live NumVertices = %d, want 63", idx.NumVertices())
	}
}
