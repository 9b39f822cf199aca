package graph

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
)

// TestBuildMatchesSortedEdgeSet checks Build against a reference CSR
// derived from the sorted, deduplicated, loop-free edge set, on random
// multigraphs with duplicates, self-loops and isolated vertices, down to
// the empty and the one-vertex graph. Each multigraph is added in five
// orders, which between them take both of Build's paths: as drawn; by
// source only, targets as drawn; sorted, duplicates and self-loops
// kept; the reference set itself; and sorted with one edge out of order
// at the end. A second Build of the same builder gives the same graph.
func TestBuildMatchesSortedEdgeSet(t *testing.T) {
	byEdge := func(x, y [2]int32) int { return slices.Compare(x[:], y[:]) }
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		n := trial % 3 // 0, 1 and 2 vertices get their share of trials
		if trial >= 30 {
			n = 1 + rng.Intn(60)
		}
		var raw [][2]int32
		if n > 0 {
			// Half the vertices never appear, so some rows stay empty;
			// few distinct endpoints make duplicates and loops common.
			live := 1 + rng.Intn(n)
			for i := rng.Intn(6 * n); i > 0; i-- {
				raw = append(raw, [2]int32{int32(rng.Intn(live)), int32(rng.Intn(live))})
			}
		}
		grow := trial%2 == 0
		growBy := rng.Intn(50)

		bySource := slices.Clone(raw)
		slices.SortStableFunc(bySource, func(x, y [2]int32) int { return int(x[0] - y[0]) })
		sorted := slices.Clone(raw)
		slices.SortFunc(sorted, byEdge)
		set := slices.DeleteFunc(slices.Compact(slices.Clone(sorted)), func(e [2]int32) bool { return e[0] == e[1] })
		lastOutOfOrder := slices.Clone(sorted)
		if len(sorted) > 0 {
			lastOutOfOrder = append(lastOutOfOrder, sorted[0])
		}
		out, in := make([][]int32, n), make([][]int32, n)
		for _, e := range set {
			out[e[0]] = append(out[e[0]], e[1])
			in[e[1]] = append(in[e[1]], e[0])
		}

		for _, row := range []struct {
			name  string
			edges [][2]int32
		}{
			{"as drawn", raw},
			{"by source only", bySource},
			{"sorted", sorted},
			{"sorted set", set},
			{"sorted, last out of order", lastOutOfOrder},
		} {
			b := NewBuilder(n)
			if grow {
				b.Grow(growBy)
			}
			for _, e := range row.edges {
				b.AddEdge(int(e[0]), int(e[1]))
			}
			for build := 1; build <= 2; build++ {
				g := b.Build()
				if g.NumVertices() != n || g.NumEdges() != len(set) {
					t.Fatalf("trial %d, %s, build %d: %d vertices / %d edges, want %d / %d",
						trial, row.name, build, g.NumVertices(), g.NumEdges(), n, len(set))
				}
				for v := 0; v < n; v++ {
					if !slices.Equal(g.Out(v), out[v]) {
						t.Fatalf("trial %d, %s, build %d: Out(%d) = %v, want %v", trial, row.name, build, v, g.Out(v), out[v])
					}
					if !slices.Equal(g.In(v), in[v]) {
						t.Fatalf("trial %d, %s, build %d: In(%d) = %v, want %v", trial, row.name, build, v, g.In(v), in[v])
					}
					if !slices.IsSorted(g.Out(v)) || !slices.IsSorted(g.In(v)) {
						t.Fatalf("trial %d, %s, build %d: adjacency of %d does not ascend: out %v in %v",
							trial, row.name, build, v, g.Out(v), g.In(v))
					}
				}
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

// TestBuildAllocsCostIndependentUnordered is the same pin on the radix
// path. Build leaves the builder's list sorted, so each run first copies
// a shuffled list back in (which allocates nothing) and every timed
// Build sorts it.
func TestBuildAllocsCostIndependentUnordered(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(m int) float64 {
		const n = 500
		rng := rand.New(rand.NewSource(int64(m)))
		b := NewBuilder(n)
		b.Grow(m)
		for i := 0; i < m; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		shuffled := slices.Clone(b.edges)
		if inOrder(shuffled) {
			t.Fatalf("%d random edges came out in order", m)
		}
		return testing.AllocsPerRun(5, func() {
			b.edges = append(b.edges[:0], shuffled...)
			b.Build()
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if small != large {
		t.Errorf("Build of unordered edges allocates %v times at 1k edges and %v at 100k", small, large)
	}
}
