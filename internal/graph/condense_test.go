package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// TestCondenseMatchesBuilderDAG checks Condense's DAG, whose rows are
// built per component, against a reference built the plain way: every
// edge mapped to its components' ids through a Builder. It runs on the
// four presets at a small scale and on random graphs with cycles,
// duplicate edges and self-loops.
func TestCondenseMatchesBuilderDAG(t *testing.T) {
	check := func(t *testing.T, name string, g *graph.Graph) {
		t.Helper()
		c := g.Condense()
		b := graph.NewBuilder(c.NumComponents())
		g.Edges(func(u, v int) { b.AddEdge(int(c.Comp[u]), int(c.Comp[v])) })
		want := b.Build()
		if c.DAG.NumVertices() != want.NumVertices() || c.DAG.NumEdges() != want.NumEdges() {
			t.Fatalf("%s: DAG has %d vertices / %d edges, want %d / %d",
				name, c.DAG.NumVertices(), c.DAG.NumEdges(), want.NumVertices(), want.NumEdges())
		}
		for v := 0; v < want.NumVertices(); v++ {
			if !slices.Equal(c.DAG.Out(v), want.Out(v)) {
				t.Fatalf("%s: Out(%d) = %v, want %v", name, v, c.DAG.Out(v), want.Out(v))
			}
			if !slices.Equal(c.DAG.In(v), want.In(v)) {
				t.Fatalf("%s: In(%d) = %v, want %v", name, v, c.DAG.In(v), want.In(v))
			}
		}
	}
	for _, net := range []*dataset.Network{
		dataset.FoursquareLike(0.05, 1),
		dataset.GowallaLike(0.05, 1),
		dataset.WeeplacesLike(0.05, 1),
		dataset.YelpLike(0.05, 1),
	} {
		check(t, net.Name, net.Graph)
	}
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(80)
		b := graph.NewBuilder(n)
		// A few short cycles, so components of several members exist.
		for i := rng.Intn(4); i > 0; i-- {
			k := 2 + rng.Intn(5)
			start := rng.Intn(n)
			for j := 0; j < k; j++ {
				b.AddEdge((start+j)%n, (start+(j+1)%k)%n)
			}
		}
		// Random edges over a few endpoints: duplicates and self-loops.
		live := 1 + rng.Intn(n)
		for i := rng.Intn(3 * n); i > 0; i-- {
			b.AddEdge(rng.Intn(live), rng.Intn(live))
		}
		check(t, fmt.Sprint("random graph ", trial), b.Build())
	}
}
