package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/trace"
)

// TestAutoParity is Auto's parity suite: it must return exactly the
// ground-truth answer across synthetic datasets (cyclic, acyclic,
// spatial-SCC), region sizes from tiny to everything, and both SCC
// policies, and so must its 3DReach.
func TestAutoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 12; trial++ {
		var net *dataset.Network
		switch trial % 3 {
		case 0:
			net = randomNetwork(rng, 3+rng.Intn(20), 1+rng.Intn(15), true)
		case 1:
			net = randomNetwork(rng, 3+rng.Intn(20), 1+rng.Intn(15), false)
		default:
			net = spatialCycleNetwork(rng, 5+rng.Intn(25))
		}
		prep := dataset.Prepare(net)
		truth := NewNaiveBFS(net)
		for _, policy := range []dataset.SCCPolicy{dataset.Replicate, dataset.MBR} {
			res, err := BuildMethod(prep, MethodAuto, BuildOptions{Policy: policy})
			if err != nil {
				t.Fatalf("trial %d policy %v: %v", trial, policy, err)
			}
			auto := res.Engine.(*Auto)
			for q := 0; q < 30; q++ {
				v := rng.Intn(net.NumVertices())
				r := randomRegion(rng)
				if q%10 == 0 {
					r = randomRegion(rng).Union(randomRegion(rng)) // larger sweep point
				}
				want := truth.RangeReach(v, r)
				if got := auto.RangeReach(v, r); got != want {
					t.Fatalf("trial %d policy %v: Auto(%d, %v) = %v, want %v", trial, policy, v, r, got, want)
				}
				if got := auto.Member().RangeReach(v, r); got != want {
					t.Fatalf("trial %d: member %s disagrees at (%d, %v)", trial, auto.Member().Name(), v, r)
				}
			}
		}
	}
}

// TestAutoTracePlan checks that a traced query names 3DReach as its
// plan.
func TestAutoTracePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	net := randomNetwork(rng, 30, 20, true)
	auto := NewAuto(dataset.Prepare(net), BuildOptions{})
	for q := 0; q < 10; q++ {
		var sp trace.Span
		auto.RangeReachTraced(rng.Intn(net.NumVertices()), randomRegion(rng), &sp)
		if sp.Plan != "3DReach" {
			t.Fatalf("traced plan %q, want 3DReach", sp.Plan)
		}
	}
}

// TestAutoConcurrentQueries hammers one Auto from several goroutines;
// run under -race (ci.sh does) to check that routing shares no mutable
// state.
func TestAutoConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(257))
	net := randomNetwork(rng, 50, 30, true)
	auto := NewAuto(dataset.Prepare(net), BuildOptions{})
	truth := NewNaiveBFS(net)
	// Precompute queries and ground truth on one goroutine; rng and the
	// naive oracle are not safe for concurrent use.
	type query struct {
		v    int
		r    geom.Rect
		want bool
	}
	full := make([]query, 64)
	for i := range full {
		v := rng.Intn(net.NumVertices())
		r := randomRegion(rng)
		full[i] = query{v: v, r: r, want: truth.RangeReach(v, r)}
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for rep := 0; rep < 20; rep++ {
				for _, fq := range full {
					if auto.RangeReach(fq.v, fq.r) != fq.want {
						done <- errors.New("concurrent auto answer diverged")
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkAutoOverhead measures Auto's per-query routing cost against
// calling its 3DReach directly on an identical workload.
func BenchmarkAutoOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(271))
	net := spatialCycleNetwork(rng, 400)
	auto := NewAuto(dataset.Prepare(net), BuildOptions{})
	type query struct {
		v int
		r geom.Rect
	}
	qs := make([]query, 256)
	for i := range qs {
		qs[i] = query{rng.Intn(net.NumVertices()), randomRegion(rng)}
	}
	b.Run("auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			auto.RangeReach(q.v, q.r)
		}
	})
	b.Run("member", func(b *testing.B) {
		m := auto.Member()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			m.RangeReach(q.v, q.r)
		}
	})
}
