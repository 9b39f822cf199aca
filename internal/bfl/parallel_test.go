package bfl

import (
	"math/rand"
	"slices"
	"testing"
)

// TestParallelBuildIdentical asserts that the level-parallel filter
// propagation produces the same label columns — the bytes Save writes
// — as the sequential build at any worker count.
func TestParallelBuildIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(150)
		g := randomDAG(rng, n, rng.Intn(5*n))
		seq := Build(g, Options{Seed: int64(trial), Parallelism: 1})
		for _, par := range []int{2, 8} {
			got := Build(g, Options{Seed: int64(trial), Parallelism: par})
			if got.words != seq.words || !slices.Equal(got.hash, seq.hash) ||
				!slices.Equal(got.out, seq.out) || !slices.Equal(got.in, seq.in) ||
				!slices.Equal(got.discover, seq.discover) || !slices.Equal(got.finish, seq.finish) {
				t.Fatalf("trial %d par %d: BFL label columns differ", trial, par)
			}
		}
	}
}
