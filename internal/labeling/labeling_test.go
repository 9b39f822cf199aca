package labeling

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randomDAG returns a random DAG over n vertices.
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

func TestBuildMatchesBFSReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		g := randomDAG(rng, n, rng.Intn(4*n))
		for _, policy := range []graph.ForestPolicy{graph.ForestDFS, graph.ForestBFS} {
			l := Build(g, Options{Forest: policy})
			for u := 0; u < n; u++ {
				reach := g.Reachable(u)
				for v := 0; v < n; v++ {
					if got := l.Reach(u, v); got != reach[v] {
						t.Fatalf("trial %d policy %d: Reach(%d,%d) = %v, want %v",
							trial, policy, u, v, got, reach[v])
					}
				}
			}
		}
	}
}

func TestAlgorithm1EquivalentToFastBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		g := randomDAG(rng, n, rng.Intn(4*n))
		forest := graph.NewSpanningForest(g, graph.ForestDFS)
		fast := BuildWithForest(g, forest, Options{})
		slow := BuildAlgorithm1WithForest(g, forest, Options{})
		for v := 0; v < n; v++ {
			if !fast.Label(v).Equal(slow.Label(v)) {
				t.Fatalf("trial %d: L(%d) differs: fast %v, algorithm1 %v",
					trial, v, fast.Label(v), slow.Label(v))
			}
		}
		if fast.UncompressedCount != slow.UncompressedCount {
			t.Fatalf("trial %d: uncompressed counts differ: %d vs %d",
				trial, fast.UncompressedCount, slow.UncompressedCount)
		}
		if fast.CompressedCount != slow.CompressedCount {
			t.Fatalf("trial %d: compressed counts differ: %d vs %d",
				trial, fast.CompressedCount, slow.CompressedCount)
		}
	}
}

func TestLabelsAreCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		g := randomDAG(rng, n, rng.Intn(4*n))
		l := Build(g, Options{})
		for v := 0; v < n; v++ {
			if !l.Label(v).IsCanonical() {
				t.Fatalf("trial %d: L(%d) = %v not canonical", trial, v, l.Label(v))
			}
			if !l.Label(v).ContainsCanonical(l.Post[v]) {
				t.Fatalf("trial %d: L(%d) misses own post", trial, v)
			}
		}
	}
}

func TestDescendantsEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(30)
		g := randomDAG(rng, n, rng.Intn(3*n))
		l := Build(g, Options{})
		for v := 0; v < n; v++ {
			want := g.Reachable(v)
			got := make([]bool, n)
			count := 0
			l.Descendants(v, func(u int32) bool {
				if got[u] {
					t.Fatalf("descendant %d enumerated twice", u)
				}
				got[u] = true
				count++
				return true
			})
			for u := 0; u < n; u++ {
				if got[u] != want[u] {
					t.Fatalf("trial %d: Descendants(%d) includes %d = %v, want %v",
						trial, v, u, got[u], want[u])
				}
			}
			if int64(count) != l.Label(v).Cardinality() {
				t.Fatalf("|D(v)| mismatch: %d vs %d", count, l.Label(v).Cardinality())
			}
		}
	}
}

func TestDescendantsEarlyStop(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	l := Build(g, Options{})
	calls := 0
	completed := l.Descendants(0, func(int32) bool {
		calls++
		return calls < 2
	})
	if completed {
		t.Error("early-stopped enumeration reported completion")
	}
	if calls != 2 {
		t.Errorf("callback ran %d times, want 2", calls)
	}
}

func TestSkipCompressionAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(25)
		g := randomDAG(rng, n, rng.Intn(3*n))
		l := Build(g, Options{SkipCompression: true})
		// Queries still correct over singleton labels.
		for u := 0; u < n; u++ {
			reach := g.Reachable(u)
			for v := 0; v < n; v++ {
				if got := l.Reach(u, v); got != reach[v] {
					t.Fatalf("trial %d: uncompressed Reach(%d,%d) = %v, want %v",
						trial, u, v, got, reach[v])
				}
			}
			// All labels are singletons.
			for _, iv := range l.Label(u) {
				if iv.Lo != iv.Hi {
					t.Fatalf("non-singleton label %v under SkipCompression", iv)
				}
			}
		}
		if l.TotalLabels() != l.UncompressedCount {
			t.Fatalf("TotalLabels %d != UncompressedCount %d",
				l.TotalLabels(), l.UncompressedCount)
		}
	}
}

func TestSingleVertexAndEmptyEdgeGraph(t *testing.T) {
	g := graph.FromEdges(1, nil)
	l := Build(g, Options{})
	if !l.Reach(0, 0) {
		t.Error("vertex cannot reach itself")
	}
	if l.NumVertices() != 1 || l.Post[0] != 1 || l.Order[0] != 0 {
		t.Error("trivial labeling wrong")
	}

	g = graph.FromEdges(5, nil)
	l = Build(g, Options{})
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			if l.Reach(u, v) != (u == v) {
				t.Errorf("edgeless Reach(%d,%d) wrong", u, v)
			}
		}
	}
}

func TestMemoryBytesGrowsWithLabels(t *testing.T) {
	small := Build(graph.FromEdges(2, [][2]int{{0, 1}}), Options{})
	rng := rand.New(rand.NewSource(43))
	big := Build(randomDAG(rng, 200, 800), Options{})
	if small.MemoryBytes() <= 0 || big.MemoryBytes() <= small.MemoryBytes() {
		t.Errorf("MemoryBytes: small %d, big %d", small.MemoryBytes(), big.MemoryBytes())
	}
}

func TestCompressionReducesLabelsOnChains(t *testing.T) {
	// A chain compresses to a single interval per vertex.
	n := 50
	edges := make([][2]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	l := Build(graph.FromEdges(n, edges), Options{})
	for v := 0; v < n; v++ {
		if len(l.Label(v)) != 1 {
			t.Fatalf("chain vertex %d has %d labels, want 1", v, len(l.Label(v)))
		}
	}
	if l.CompressedCount != int64(n) {
		t.Errorf("CompressedCount = %d, want %d", l.CompressedCount, n)
	}
	if l.UncompressedCount != int64(n*(n+1)/2) {
		t.Errorf("UncompressedCount = %d, want %d", l.UncompressedCount, n*(n+1)/2)
	}
}
