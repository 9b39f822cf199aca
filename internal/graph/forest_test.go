package graph

import (
	"math/rand"
	"testing"
)

// checkForestInvariants validates the structural invariants every
// spanning forest of a DAG must satisfy.
func checkForestInvariants(t *testing.T, g *Graph, f *SpanningForest) {
	t.Helper()
	n := g.NumVertices()
	if len(f.Order) != n {
		t.Fatalf("Order has %d entries for %d vertices", len(f.Order), n)
	}
	// Post numbers are a permutation of [1, n] consistent with Order.
	seen := make([]bool, n+1)
	for v := 0; v < n; v++ {
		p := f.Post[v]
		if p < 1 || p > int32(n) || seen[p] {
			t.Fatalf("bad post number %d for vertex %d", p, v)
		}
		seen[p] = true
		if f.Order[p-1] != int32(v) {
			t.Fatalf("Order[%d] = %d, want %d", p-1, f.Order[p-1], v)
		}
	}
	// Parent edges exist in g; a parent has a higher post number than any
	// vertex in its subtree, and MinPost bounds the subtree.
	for v := 0; v < n; v++ {
		p := f.Parent[v]
		if p < 0 {
			continue
		}
		if !g.HasEdge(int(p), v) {
			t.Fatalf("tree edge (%d,%d) not in graph", p, v)
		}
		if f.Post[p] <= f.Post[v] {
			t.Fatalf("parent %d post %d <= child %d post %d", p, f.Post[p], v, f.Post[v])
		}
		if f.MinPost[p] > f.MinPost[v] {
			t.Fatalf("MinPost not monotone at (%d,%d)", p, v)
		}
	}
	// Subtree of v covers exactly [MinPost[v], Post[v]].
	for v := 0; v < n; v++ {
		count := 0
		for u := 0; u < n; u++ {
			inChain := false
			for w := int32(u); w >= 0; w = f.Parent[w] {
				if w == int32(v) {
					inChain = true
					break
				}
			}
			inRange := f.Post[u] >= f.MinPost[v] && f.Post[u] <= f.Post[v]
			if inChain != inRange {
				t.Fatalf("subtree range mismatch: v=%d u=%d chain=%v range=%v",
					v, u, inChain, inRange)
			}
			if inChain {
				count++
			}
		}
		if int64(count) != int64(f.Post[v]-f.MinPost[v]+1) {
			t.Fatalf("subtree of %d not contiguous", v)
		}
	}
	// Tree-edge marks agree with parents.
	treeEdges := 0
	for u := 0; u < n; u++ {
		for i, v := range g.Out(u) {
			if f.IsTreeEdge(u, i) {
				treeEdges++
				if f.Parent[v] != int32(u) {
					t.Fatalf("marked tree edge (%d,%d) but parent is %d", u, v, f.Parent[v])
				}
			}
		}
	}
	roots := 0
	for v := 0; v < n; v++ {
		if f.Parent[v] < 0 {
			roots++
		}
	}
	if treeEdges != n-roots {
		t.Fatalf("tree has %d edges for %d vertices and %d roots", treeEdges, n, roots)
	}
	// Non-tree edges complete the edge set.
	if got := len(f.NonTreeEdges()); got != g.NumEdges()-treeEdges {
		t.Fatalf("NonTreeEdges = %d, want %d", got, g.NumEdges()-treeEdges)
	}
}

func TestSpanningForestPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(25)
		g := randomDAG(rng, n, rng.Intn(3*n))
		for _, policy := range []ForestPolicy{ForestDFS, ForestBFS} {
			f := NewSpanningForest(g, policy)
			checkForestInvariants(t, g, f)
		}
	}
}

func TestSpanningForestDFSEdgesPointBackwards(t *testing.T) {
	// Under the DFS policy every graph edge goes from a higher to a lower
	// post number — the property Algorithm 1's non-tree-edge ordering
	// relies on.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		g := randomDAG(rng, n, rng.Intn(4*n))
		f := NewSpanningForest(g, ForestDFS)
		g.Edges(func(u, v int) {
			if f.Post[v] >= f.Post[u] {
				t.Fatalf("trial %d: edge (%d,%d) with post %d >= %d",
					trial, u, v, f.Post[v], f.Post[u])
			}
		})
	}
}

func TestSpanningForestPanicsOnCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on cyclic input")
		}
	}()
	NewSpanningForest(FromEdges(2, [][2]int{{0, 1}, {1, 0}}), ForestDFS)
}

func TestForestFromParents(t *testing.T) {
	// The paper's Figure 3 forest; see labeling tests for the full
	// fixture. Here: a diamond where we force the spanning tree shape.
	g := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	f := ForestFromParents(g, []int32{-1, 0, 0, 2}, []int32{0})
	checkForestInvariants(t, g, f)
	if f.Parent[3] != 2 {
		t.Errorf("Parent[3] = %d, want 2", f.Parent[3])
	}
	// Post-order with children by id: subtree(1)={1}, subtree(2)={3,2}:
	// post: 1->1, 3->2, 2->3, 0->4.
	want := []int32{4, 1, 3, 2}
	for v, p := range want {
		if f.Post[v] != p {
			t.Errorf("Post[%d] = %d, want %d", v, f.Post[v], p)
		}
	}
}

func TestForestFromParentsValidation(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	for name, fn := range map[string]func(){
		"bad-length": func() { ForestFromParents(g, []int32{-1, 0}, []int32{0}) },
		"phantom-edge": func() {
			ForestFromParents(g, []int32{-1, 0, 0}, []int32{0})
		},
		"root-mismatch": func() {
			ForestFromParents(g, []int32{-1, 0, 1}, []int32{0, 2})
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}
