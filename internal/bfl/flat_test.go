package bfl

import (
	"math/rand"
	"testing"
)

// TestBFLSerializeRoundTrip: whatever Build produces, FromFlat accepts
// as columns, and the reassembled index answers reachability.
func TestBFLSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(40)
		g := randomDAG(rng, n, rng.Intn(4*n))
		idx := Build(g, Options{Seed: int64(trial)})

		words, hash, out, in, discover, finish := idx.Flat()
		got, err := FromFlat(g, words, hash, out, in, discover, finish)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			reach := g.Reachable(u)
			for v := 0; v < n; v++ {
				if got.Reach(u, v) != reach[v] {
					t.Fatalf("trial %d: loaded Reach(%d,%d) wrong", trial, u, v)
				}
			}
		}
	}
}
