package georeach

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// TestParallelBuildIdentical asserts that level-parallel SPA-Graph
// classification freezes into the same columns — the bytes Save writes
// — as the sequential build.
func TestParallelBuildIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		net := randomNetwork(rng, 40+rng.Intn(120), 20+rng.Intn(60))
		prep := dataset.Prepare(net)
		seq := Build(prep, Params{Parallelism: 1})
		for _, par := range []int{2, 8} {
			got := Build(prep, Params{Parallelism: par})
			if !sameColumns(seq, got) {
				t.Fatalf("trial %d par %d: SPA-Graph columns differ", trial, par)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d par %d: parallel build fails validation: %v", trial, par, err)
			}
		}
	}
}

func sameColumns(a, b *Index) bool {
	return slices.Equal(a.flags, b.flags) && slices.Equal(a.rmbr, b.rmbr) &&
		slices.Equal(a.gridOff, b.gridOff) && slices.Equal(a.gridKeys, b.gridKeys)
}
