package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	b.AddEdge(1, 3)
	g := b.Build()
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 3) {
		t.Error("expected edges missing")
	}
	if g.HasEdge(2, 2) {
		t.Error("self loop retained")
	}
	if g.HasEdge(1, 0) {
		t.Error("phantom reverse edge")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {3, 2}, {2, 4}})
	if g.OutDegree(0) != 2 || g.InDegree(2) != 2 || g.OutDegree(4) != 0 {
		t.Error("degree mismatch")
	}
	out := g.Out(0)
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Errorf("Out(0) = %v", out)
	}
	in := g.In(2)
	if len(in) != 2 || in[0] != 0 || in[1] != 3 {
		t.Errorf("In(2) = %v", in)
	}
}

func TestReverse(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	r := g.Reverse()
	if r.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
	g.Edges(func(u, v int) {
		if !r.HasEdge(v, u) {
			t.Errorf("reversed edge (%d,%d) missing", v, u)
		}
	})
}

func TestRoots(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {2, 1}, {1, 3}})
	roots := g.Roots()
	want := []int{0, 2, 4}
	if len(roots) != len(want) {
		t.Fatalf("Roots = %v, want %v", roots, want)
	}
	for i := range want {
		if roots[i] != want[i] {
			t.Fatalf("Roots = %v, want %v", roots, want)
		}
	}
}

func TestBFSEarlyStop(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	visited := 0
	completed := g.BFS(0, func(v int) bool {
		visited++
		return v != 2
	})
	if completed {
		t.Error("BFS should report early stop")
	}
	if visited != 3 {
		t.Errorf("visited %d vertices, want 3", visited)
	}
}

func TestCanReachAndReachable(t *testing.T) {
	g := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if !g.CanReach(0, 2) || g.CanReach(0, 3) || !g.CanReach(0, 0) {
		t.Error("CanReach wrong")
	}
	r := g.Reachable(0)
	for v, want := range []bool{true, true, true, false, false, false} {
		if r[v] != want {
			t.Errorf("Reachable(0)[%d] = %v", v, r[v])
		}
	}
}

func TestTopoOrder(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}})
	order, ok := g.TopoOrder()
	if !ok {
		t.Fatal("DAG reported cyclic")
	}
	pos := make([]int, 5)
	for i, v := range order {
		pos[v] = i
	}
	g.Edges(func(u, v int) {
		if pos[u] >= pos[v] {
			t.Errorf("edge (%d,%d) violates topo order", u, v)
		}
	})

	cyclic := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if _, ok := cyclic.TopoOrder(); ok {
		t.Error("cycle not detected")
	}
	if cyclic.IsDAG() {
		t.Error("IsDAG wrong for cycle")
	}
}

func TestSCCsSimple(t *testing.T) {
	// Two 2-cycles and one singleton.
	g := FromEdges(5, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}, {3, 4}})
	comp, count := g.SCCs()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] || comp[4] == comp[3] {
		t.Errorf("components wrong: %v", comp)
	}
	// Reverse topological ids: edge C(0,1) -> C(2,3) -> C(4).
	if !(comp[0] > comp[2] && comp[2] > comp[4]) {
		t.Errorf("component ids not reverse-topological: %v", comp)
	}
}

// randomGraph returns a random directed graph.
func randomGraph(rng *rand.Rand, n, edges int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < edges; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// randomDAG returns a random DAG (edges only from lower to higher id
// after a random relabeling).
func randomDAG(rng *rand.Rand, n, edges int) *Graph {
	perm := rng.Perm(n)
	b := NewBuilder(n)
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

func TestSCCsRandomizedAgainstReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(4*n))
		comp, _ := g.SCCs()
		reach := make([][]bool, n)
		for v := 0; v < n; v++ {
			reach[v] = g.Reachable(v)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := comp[u] == comp[v]
				mutual := reach[u][v] && reach[v][u]
				if same != mutual {
					t.Fatalf("trial %d: comp(%d)==comp(%d) is %v but mutual reach is %v",
						trial, u, v, same, mutual)
				}
			}
		}
	}
}

func TestCondensePreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(3*n))
		c := g.Condense()
		if !c.DAG.IsDAG() {
			t.Fatal("condensation not a DAG")
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := g.CanReach(u, v)
				got := c.DAG.CanReach(int(c.Comp[u]), int(c.Comp[v]))
				if got != want {
					t.Fatalf("trial %d: reach(%d,%d) = %v after condensation, want %v",
						trial, u, v, got, want)
				}
			}
		}
		// Members partition the vertex set, ascending within a component.
		seen := make([]bool, n)
		for cid := range c.NumComponents() {
			members := c.Members(cid)
			if !slices.IsSorted(members) {
				t.Fatalf("component %d members %v not ascending", cid, members)
			}
			for _, v := range members {
				if seen[v] {
					t.Fatal("vertex in two components")
				}
				seen[v] = true
				if c.Comp[v] != int32(cid) {
					t.Fatal("Members/Comp inconsistent")
				}
			}
		}
		for v, s := range seen {
			if !s {
				t.Fatalf("vertex %d in no component", v)
			}
		}
	}
}

func TestCondensationStats(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 0}, {1, 2}, {3, 4}})
	c := g.Condense()
	if c.NumComponents() != 4 {
		t.Errorf("NumComponents = %d, want 4", c.NumComponents())
	}
	if c.LargestComponentSize() != 2 {
		t.Errorf("LargestComponentSize = %d, want 2", c.LargestComponentSize())
	}
}

func TestMemoryBytesPositive(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}})
	if g.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
}
