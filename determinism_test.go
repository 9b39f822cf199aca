package rangereach_test

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	rangereach "repro"
)

// parallelTestNetwork builds a random geosocial network big enough to
// engage every parallel build path (multi-level DAG, thousands of
// spatial vertices).
func parallelTestNetwork(t *testing.T, seed int64) *rangereach.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	users, venues := 3000, 2000
	n := users + venues
	b := rangereach.NewNetworkBuilder(n).SetName("parallel-determinism")
	for v := users; v < n; v++ {
		b.SetPoint(v, rng.Float64()*1000, rng.Float64()*1000)
	}
	for i := 0; i < 6*n; i++ {
		u := rng.Intn(users)
		var w int
		if rng.Float64() < 0.3 {
			w = users + rng.Intn(venues) // check-in
		} else {
			w = rng.Intn(users) // follow
		}
		if u != w {
			b.AddEdge(u, w)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// allMethods lists every indexed method: the paper's and the composite.
func allMethods() []rangereach.Method {
	return append([]rangereach.Method{rangereach.MethodAuto}, rangereach.Methods...)
}

// TestParallelBuildByteIdentical is the end-to-end determinism gate for
// the parallel build pipeline: for every persistable method, an index
// built with 8 workers must serialize to exactly the bytes of the
// sequential build, and must pass deep validation.
func TestParallelBuildByteIdentical(t *testing.T) {
	net := parallelTestNetwork(t, 17)
	for _, m := range allMethods() {
		if !m.Persistable() {
			continue
		}
		opts := []rangereach.Option{rangereach.WithParallelism(1)}
		seq, err := net.Build(m, opts...)
		if err != nil {
			t.Fatalf("%v: sequential build: %v", m, err)
		}
		var want bytes.Buffer
		if err := seq.Save(&want); err != nil {
			t.Fatalf("%v: save sequential: %v", m, err)
		}
		for _, par := range []int{2, 8} {
			popts := append(append([]rangereach.Option(nil), opts[1:]...), rangereach.WithParallelism(par))
			idx, err := net.Build(m, popts...)
			if err != nil {
				t.Fatalf("%v par %d: %v", m, par, err)
			}
			if err := idx.Validate(); err != nil {
				t.Fatalf("%v par %d: validation: %v", m, par, err)
			}
			var got bytes.Buffer
			if err := idx.Save(&got); err != nil {
				t.Fatalf("%v par %d: save: %v", m, par, err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("%v: parallelism %d serializes differently from sequential (%d vs %d bytes)",
					m, par, got.Len(), want.Len())
			}
		}
	}
}

// TestParallelBuildAnswersMatch cross-checks parallel-built indexes of
// the non-persistable methods (no bytes to compare) against their
// sequential builds on a query workload, after deep validation. The
// structures they share with no file (labelings, BFL filters, R-trees)
// are held byte-identical across worker counts by their packages'
// TestParallelBuildIdentical and rtree's TestBulkLoadPoolIdentical.
func TestParallelBuildAnswersMatch(t *testing.T) {
	net := parallelTestNetwork(t, 23)
	rng := rand.New(rand.NewSource(29))
	for _, m := range allMethods() {
		if m.Persistable() {
			continue
		}
		seq, err := net.Build(m, rangereach.WithParallelism(1))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		par, err := net.Build(m, rangereach.WithParallelism(8))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := par.Validate(); err != nil {
			t.Fatalf("%v par 8: validation: %v", m, err)
		}
		for q := 0; q < 200; q++ {
			v := rng.Intn(net.NumVertices())
			x, y := rng.Float64()*1000, rng.Float64()*1000
			r := rangereach.NewRect(x, y, x+rng.Float64()*200, y+rng.Float64()*200)
			if seq.RangeReach(v, r) != par.RangeReach(v, r) {
				t.Fatalf("%v: sequential and parallel builds disagree on query %d", m, q)
			}
		}
	}
}

// TestDynamicConcurrentRebuild races the dynamic writer — inserting
// enough venues to cross the overlay threshold repeatedly, so the base
// tree rebuilds (in parallel) mid-run — against reader goroutines
// querying published snapshots. Run under -race this certifies the
// snapshot-swap contract survives parallel base rebuilds.
func TestDynamicConcurrentRebuild(t *testing.T) {
	net := figure1(t)
	idx := net.BuildDynamic(rangereach.WithParallelism(4))
	region := rangereach.NewRect(0, 0, 1000, 1000)

	var current atomic.Pointer[rangereach.DynamicSnapshot]
	current.Store(idx.Snapshot())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := current.Load()
				v := rng.Intn(s.NumVertices())
				s.RangeReach(v, region)
			}
		}(g)
	}
	// Writer: 2000 venues with edges from existing users forces several
	// base rebuilds (overlay threshold is an eighth of all entries).
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		v := idx.AddVenue(rng.Float64()*1000, rng.Float64()*1000)
		if err := idx.AddEdge(rng.Intn(4), v); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			current.Store(idx.Snapshot())
		}
	}
	close(stop)
	wg.Wait()

	final := idx.Snapshot()
	if !final.RangeReach(0, region) {
		t.Fatal("user 0 should reach some venue after 2000 check-ins")
	}
}

// TestBuildPhasesReported asserts that Stats().Phases attributes the
// build to named phases for both sequential and parallel builds.
func TestBuildPhasesReported(t *testing.T) {
	net := figure1(t)
	for _, par := range []int{1, 4} {
		idx, err := net.Build(rangereach.ThreeDReach, rangereach.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		phases := idx.Stats().Phases
		names := map[string]bool{}
		for _, ph := range phases {
			names[ph.Name] = true
		}
		if !names["labeling"] || !names["spatial"] {
			t.Errorf("parallelism %d: phases %v missing labeling/spatial", par, phases)
		}
	}
}
