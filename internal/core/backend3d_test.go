package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func TestThreeDReachBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 12; trial++ {
		net := randomNetwork(rng, 5+rng.Intn(25), 2+rng.Intn(20), trial%2 == 0)
		prep := dataset.Prepare(net)
		truth := NewNaiveBFS(net)
		backends := []SpatialBackend{BackendRTree, BackendGrid}
		engines := make([]*ThreeDReach, len(backends))
		for i, b := range backends {
			engines[i] = NewThreeDReach(prep, ThreeDOptions{Backend: b})
			if engines[i].MemoryBytes() <= 0 {
				t.Fatalf("%v: non-positive memory", b)
			}
		}
		for q := 0; q < 30; q++ {
			v := rng.Intn(net.NumVertices())
			r := randomRegion(rng)
			want := truth.RangeReach(v, r)
			for i, e := range engines {
				if got := e.RangeReach(v, r); got != want {
					t.Fatalf("trial %d backend %v: RangeReach(%d, %v) = %v, want %v",
						trial, backends[i], v, r, got, want)
				}
			}
		}
	}
}

func TestSpatialBackendString(t *testing.T) {
	if BackendRTree.String() != "rtree" || BackendGrid.String() != "grid" {
		t.Error("backend names wrong")
	}
	if SpatialBackend(9).String() == "" {
		t.Error("unknown backend string empty")
	}
}

func TestMBRPolicyIgnoresBackend(t *testing.T) {
	// The MBR policy indexes boxes, which only the R-tree supports; a
	// non-default backend must not break it.
	rng := rand.New(rand.NewSource(503))
	net := spatialCycleNetwork(rng, 40)
	prep := dataset.Prepare(net)
	truth := NewNaiveBFS(net)
	e := NewThreeDReach(prep, ThreeDOptions{Policy: dataset.MBR, Backend: BackendGrid})
	for q := 0; q < 30; q++ {
		v := rng.Intn(net.NumVertices())
		r := randomRegion(rng)
		if e.RangeReach(v, r) != truth.RangeReach(v, r) {
			t.Fatalf("MBR policy with backend option wrong at v=%d", v)
		}
	}
}
