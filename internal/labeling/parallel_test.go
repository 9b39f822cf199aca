package labeling

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestParallelBuildIdentical asserts the determinism contract of the
// parallel merge: at any worker count the labeling — post orders, label
// sets, Table 6 counters, and so the columns Save writes — matches the
// sequential build exactly.
func TestParallelBuildIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		g := randomDAG(rng, n, rng.Intn(5*n))
		for _, policy := range []graph.ForestPolicy{graph.ForestDFS, graph.ForestBFS} {
			seq := Build(g, Options{Forest: policy, Parallelism: 1})
			for _, par := range []int{2, 8} {
				got := Build(g, Options{Forest: policy, Parallelism: par})
				if got.UncompressedCount != seq.UncompressedCount ||
					got.CompressedCount != seq.CompressedCount {
					t.Fatalf("trial %d par %d: counters differ", trial, par)
				}
				if !sameColumns(seq, got) {
					t.Fatalf("trial %d policy %d par %d: labeling columns differ",
						trial, policy, par)
				}
			}
		}
	}
}

func sameColumns(a, b *Labeling) bool {
	aPost, aOrder, aOff, aData := a.FlatColumns()
	bPost, bOrder, bOff, bData := b.FlatColumns()
	return slices.Equal(aPost, bPost) && slices.Equal(aOrder, bOrder) &&
		slices.Equal(aOff, bOff) && slices.Equal(aData, bData)
}
