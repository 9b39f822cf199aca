package pll

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func randomDAG(rng *rand.Rand, n, edges int) *graph.Graph {
	perm := rng.Perm(n)
	b := graph.NewBuilder(n)
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if perm[u] > perm[v] {
			u, v = v, u
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

func TestReachMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(40)
		g := randomDAG(rng, n, rng.Intn(4*n))
		idx := Build(g, Options{Seed: int64(trial)})
		for u := 0; u < n; u++ {
			reach := g.Reachable(u)
			for v := 0; v < n; v++ {
				if got := idx.Reach(u, v); got != reach[v] {
					t.Fatalf("trial %d: Reach(%d,%d) = %v, want %v", trial, u, v, got, reach[v])
				}
			}
		}
	}
}

func TestShapes(t *testing.T) {
	// Chain, star, diamond and edgeless graphs.
	chain := make([][2]int, 0, 49)
	for i := 0; i < 49; i++ {
		chain = append(chain, [2]int{i, i + 1})
	}
	star := make([][2]int, 0, 49)
	for i := 1; i < 50; i++ {
		star = append(star, [2]int{0, i})
	}
	for name, edges := range map[string][][2]int{
		"chain":    chain,
		"star":     star,
		"diamond":  {{0, 1}, {0, 2}, {1, 3}, {2, 3}},
		"edgeless": nil,
	} {
		t.Run(name, func(t *testing.T) {
			n := 50
			if name == "diamond" {
				n = 4
			}
			g := graph.FromEdges(n, edges)
			idx := Build(g, Options{Seed: 7})
			for u := 0; u < n; u++ {
				reach := g.Reachable(u)
				for v := 0; v < n; v++ {
					if idx.Reach(u, v) != reach[v] {
						t.Fatalf("Reach(%d,%d) wrong", u, v)
					}
				}
			}
		})
	}
}

func TestLabelsPrunedBelowTransitiveClosure(t *testing.T) {
	// On a chain the transitive closure has n(n+1)/2 ≈ 20k pairs; PLL
	// with random landmark ties needs only O(n log n) labels in
	// expectation (≈2·n·ln n ≈ 2.1k for n = 200). Allow generous slack.
	n := 200
	edges := make([][2]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	idx := Build(graph.FromEdges(n, edges), Options{Seed: 1})
	// MemoryBytes counts 4 bytes per landmark entry plus the rank array.
	labels := (idx.MemoryBytes() - int64(4*n)) / 4
	if labels <= 0 || labels > int64(5*n*8) { // 8 ≈ log2(200) + slack
		t.Errorf("chain labels = %d, want O(n log n)", labels)
	}
}

func TestPanicsOnCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Build(graph.FromEdges(2, [][2]int{{0, 1}, {1, 0}}), Options{})
}
