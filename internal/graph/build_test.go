package graph

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
)

// TestBuildMatchesSortedEdgeSet checks the counting-sort Build against
// a reference CSR derived from the sorted, deduplicated, loop-free edge
// set, on random multigraphs with duplicates, self-loops and isolated
// vertices, down to the empty and the one-vertex graph.
func TestBuildMatchesSortedEdgeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		n := trial % 3 // 0, 1 and 2 vertices get their share of trials
		if trial >= 30 {
			n = 1 + rng.Intn(60)
		}
		b := NewBuilder(n)
		if trial%2 == 0 {
			b.Grow(rng.Intn(50))
		}
		var raw [][2]int32
		if n > 0 {
			// Half the vertices never appear, so some rows stay empty;
			// few distinct endpoints make duplicates and loops common.
			live := 1 + rng.Intn(n)
			for i := rng.Intn(6 * n); i > 0; i-- {
				u, v := rng.Intn(live), rng.Intn(live)
				b.AddEdge(u, v)
				raw = append(raw, [2]int32{int32(u), int32(v)})
			}
		}
		g := b.Build()

		slices.SortFunc(raw, func(x, y [2]int32) int { return slices.Compare(x[:], y[:]) })
		raw = slices.Compact(raw)
		raw = slices.DeleteFunc(raw, func(e [2]int32) bool { return e[0] == e[1] })
		out, in := make([][]int32, n), make([][]int32, n)
		for _, e := range raw {
			out[e[0]] = append(out[e[0]], e[1])
			in[e[1]] = append(in[e[1]], e[0])
		}

		if g.NumVertices() != n || g.NumEdges() != len(raw) {
			t.Fatalf("trial %d: %d vertices / %d edges, want %d / %d", trial, g.NumVertices(), g.NumEdges(), n, len(raw))
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(g.Out(v), out[v]) {
				t.Fatalf("trial %d: Out(%d) = %v, want %v", trial, v, g.Out(v), out[v])
			}
			if !slices.Equal(g.In(v), in[v]) {
				t.Fatalf("trial %d: In(%d) = %v, want %v", trial, v, g.In(v), in[v])
			}
			if !slices.IsSorted(g.Out(v)) || !slices.IsSorted(g.In(v)) {
				t.Fatalf("trial %d: adjacency of %d does not ascend: out %v in %v", trial, v, g.Out(v), g.In(v))
			}
		}
	}
}

// TestBuildAllocsCostIndependent pins Build's allocation count to a
// constant: the scratch and the CSR arrays, however many edges — a
// comparison sort's closures or a per-row slice would make it grow.
func TestBuildAllocsCostIndependent(t *testing.T) {
	// AllocsPerRun reads a process-wide counter, and a collection set off
	// by the larger build's megabytes allocates on its own goroutines.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(m int) float64 {
		const n = 500
		rng := rand.New(rand.NewSource(int64(m)))
		b := NewBuilder(n)
		b.Grow(m)
		for i := 0; i < m; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		return testing.AllocsPerRun(5, func() { b.Build() })
	}
	small, large := allocs(1_000), allocs(100_000)
	if small != large {
		t.Errorf("Build allocates %v times at 1k edges and %v at 100k", small, large)
	}
}
