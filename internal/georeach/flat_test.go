package georeach

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// reassembled passes idx's columns back through FromFlat, the way a
// load does.
func reassembled(prep *dataset.Prepared, idx *Index) (*Index, error) {
	flags, rmbr, gridOff, gridKeys := idx.FlatColumns()
	return FromFlat(prep, idx.FlatMeta(), flags, rmbr, gridOff, gridKeys)
}

// TestSPAGraphSerializeRoundTrip: whatever Build freezes, FromFlat
// accepts, and the reassembled index counts and answers the same.
func TestSPAGraphSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	for trial := 0; trial < 10; trial++ {
		net := randomNetwork(rng, 5+rng.Intn(25), 2+rng.Intn(20))
		prep := dataset.Prepare(net)
		idx := Build(prep, Params{MaxReachGrids: 4, MergeCount: 2, Levels: 5})

		loaded, err := reassembled(prep, idx)
		if err != nil {
			t.Fatal(err)
		}
		g1, r1, b1 := idx.CountKinds()
		g2, r2, b2 := loaded.CountKinds()
		if g1 != g2 || r1 != r2 || b1 != b2 {
			t.Fatalf("kind counts changed: %d/%d/%d -> %d/%d/%d", g1, r1, b1, g2, r2, b2)
		}
		if loaded.MemoryBytes() != idx.MemoryBytes() {
			t.Fatalf("memory accounting changed: %d -> %d",
				idx.MemoryBytes(), loaded.MemoryBytes())
		}
		for q := 0; q < 30; q++ {
			v := rng.Intn(net.NumVertices())
			r := randomRegion(rng)
			if loaded.RangeReach(v, r) != idx.RangeReach(v, r) {
				t.Fatalf("trial %d: loaded SPA-graph disagrees at v=%d", trial, v)
			}
		}
	}
}

func TestSPAGraphSerializeDegenerate(t *testing.T) {
	// A network with no spatial vertices still round-trips.
	net := &dataset.Network{
		Name:    "dry",
		Graph:   graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		Spatial: make([]bool, 4),
		Points:  make([]geom.Point, 4),
	}
	prep := dataset.Prepare(net)
	loaded, err := reassembled(prep, Build(prep, Params{}))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.RangeReach(0, geom.NewRect(-1e9, -1e9, 1e9, 1e9)) {
		t.Error("spatial-free network answered TRUE after reload")
	}
}
