package incr

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// socialIndex builds an index over n users and the given edges.
func socialIndex(n int, edges [][2]int) *Index {
	return New(dataset.Prepare(&dataset.Network{
		Name:    "social",
		Graph:   graph.FromEdges(n, edges),
		Spatial: make([]bool, n),
		Points:  make([]geom.Point, n),
	}), Options{})
}

// checkPartition compares the index's components with the strongly
// connected components of the edge list, computed from scratch, up to
// renaming.
func checkPartition(t *testing.T, x *Index, n int, edges [][2]int) {
	t.Helper()
	if err := x.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	scc, _ := graph.FromEdges(n, edges).SCCs()
	toIndex, toSCC := map[int32]int32{}, map[int32]int32{}
	for v := 0; v < n; v++ {
		c := x.comp.at(int32(v))
		if got, ok := toIndex[scc[v]]; ok && got != c {
			t.Fatalf("vertex %d: component %d, but its strongly connected component holds a vertex of component %d", v, c, got)
		}
		if got, ok := toSCC[c]; ok && got != scc[v] {
			t.Fatalf("vertex %d: component %d spans two strongly connected components", v, c)
		}
		toIndex[scc[v]], toSCC[c] = c, scc[v]
	}
}

// TestSplitMatchesFromScratchSCCs is the differential test of the split
// path: on random strongly connected digraphs every edge is deleted in
// turn, alone and as the next of a growing burst, and after each flush
// the pieces must be the from-scratch strongly connected components.
func TestSplitMatchesFromScratchSCCs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	splits := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(39)
		// A Hamiltonian cycle in a random order makes the graph strongly
		// connected; few chords keep most edges critical.
		perm := rng.Perm(n)
		seen := map[[2]int]bool{}
		var edges [][2]int
		add := func(u, v int) {
			if e := [2]int{u, v}; u != v && !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		for i := range perm {
			add(perm[i], perm[(i+1)%n])
		}
		for i := rng.Intn(n); i > 0; i-- {
			add(rng.Intn(n), rng.Intn(n))
		}
		without := func(skip int) [][2]int {
			rest := append([][2]int(nil), edges[:skip]...)
			return append(rest, edges[skip+1:]...)
		}
		for i, e := range edges {
			x := socialIndex(n, edges)
			if x.liveComps != 1 {
				t.Fatalf("trial %d: fixture has %d components, want 1", trial, x.liveComps)
			}
			if err := x.DeleteEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			checkPartition(t, x, n, without(i))
			splits += x.Stats().Splits
		}
		// The same deletes as one stream: later ones meet components the
		// earlier ones already broke up.
		x := socialIndex(n, edges)
		order := rng.Perm(len(edges))
		left := append([][2]int(nil), edges...)
		for _, i := range order {
			e := edges[i]
			if err := x.DeleteEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			for j := range left {
				if left[j] == e {
					left = append(left[:j], left[j+1:]...)
					break
				}
			}
			checkPartition(t, x, n, left)
		}
	}
	if splits == 0 {
		t.Fatal("no delete split its component; the test is vacuous")
	}
}

// TestPeelCertificate pins the split probe's three outcomes on small
// graphs: a certified peel (of one vertex and of more, closed from
// either endpoint), and the two cases where the certificate must fail
// because the peeled vertex was the only bridge between two halves of
// the component, which then needs the exhaustive decomposition.
func TestPeelCertificate(t *testing.T) {
	ring := func(from, to int) (es [][2]int) {
		for v := from; v < to; v++ {
			es = append(es, [2]int{v, v + 1})
		}
		return append(es, [2]int{to, from})
	}
	// Vertices 0..9 form a ring; 10 and 11 hang off it as a detour
	// 3 → 10 → 11 → 5, with 11 → 10 closing them into a pair.
	detour := append(ring(0, 9), [2]int{3, 10}, [2]int{10, 11}, [2]int{11, 10}, [2]int{11, 5})
	// Two rings, 0..2 and 3..5, joined by 0 → 3 one way and only
	// through vertex 6 the other: 4 → 6 → 1.
	bridge := append(append(ring(0, 2), ring(3, 5)...), [2]int{0, 3}, [2]int{4, 6}, [2]int{6, 1})

	for _, tc := range []struct {
		name       string
		n          int
		edges      [][2]int
		del        [2]int
		nR, nB     int
		peeled     uint8
		components int
	}{
		{"peel-two-forward", 12, detour, [2]int{11, 5}, 2, 10, inR, 2},
		{"peel-two-backward", 12, detour, [2]int{3, 10}, 10, 2, inB, 2},
		{"peel-one", 7, append(ring(0, 5), [2]int{2, 6}, [2]int{6, 4}), [2]int{6, 4}, 1, 6, inR, 2},
		{"bridge-forward-fails", 7, bridge, [2]int{6, 1}, 1, 3, 0, 3},
		{"bridge-backward-fails", 7, bridge, [2]int{4, 6}, 3, 1, 0, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := socialIndex(tc.n, tc.edges)
			if x.liveComps != 1 {
				t.Fatalf("fixture has %d components, want 1", x.liveComps)
			}
			u, v := tc.del[0], tc.del[1]
			x.removeEdge(u, v)
			nR, nB, peeled, meet := x.probeSplit(x.comp.at(int32(u)), int32(u), int32(v))
			if meet || nR != tc.nR || nB != tc.nB || peeled != tc.peeled {
				t.Fatalf("probeSplit = (|R| %d, |B| %d, peeled %d, meet %v), want (%d, %d, %d, false)",
					nR, nB, peeled, meet, tc.nR, tc.nB, tc.peeled)
			}

			// And through the public path, against the from-scratch SCCs.
			x = socialIndex(tc.n, tc.edges)
			if err := x.DeleteEdge(u, v); err != nil {
				t.Fatal(err)
			}
			var left [][2]int
			for _, e := range tc.edges {
				if e != tc.del {
					left = append(left, e)
				}
			}
			checkPartition(t, x, tc.n, left)
			if x.liveComps != tc.components {
				t.Errorf("%d components after the delete, want %d", x.liveComps, tc.components)
			}
		})
	}
}

// TestPeelCostIndependentOfComponentSize is the count guard on the
// split path: peeling one vertex off a strongly connected component
// expands the same number of vertices whether the component has a
// thousand members or eight thousand. The counts repeat exactly. Before
// the peel certificate the probe ran the big side to completion, one
// expansion per member.
func TestPeelCostIndependentOfComponentSize(t *testing.T) {
	steps := func(n int) int {
		// A ring with a chord every 50 vertices, and vertex n on a detour
		// 10 → n → 13 around three ring vertices that carry no chord.
		var edges [][2]int
		for v := 0; v < n; v++ {
			edges = append(edges, [2]int{v, (v + 1) % n})
			if v%50 == 0 {
				edges = append(edges, [2]int{v, (v + 100) % n})
			}
		}
		edges = append(edges, [2]int{10, n}, [2]int{n, 13})
		x := socialIndex(n+1, edges)
		if x.liveComps != 1 {
			t.Fatalf("n=%d: fixture has %d components, want 1", n, x.liveComps)
		}
		if err := x.DeleteEdge(n, 13); err != nil {
			t.Fatal(err)
		}
		before := x.probeSteps
		if err := x.Validate(); err != nil { // flushes the split check
			t.Fatal(err)
		}
		if s := x.Stats(); s.Splits != 1 || s.LiveComps != 2 || len(x.members[x.comp.at(0)]) != n {
			t.Fatalf("n=%d: want one split peeling one vertex off the component, got %+v", n, s)
		}
		return x.probeSteps - before
	}
	small, large := steps(1000), steps(8000)
	if small != large || small == 0 || small > 16 {
		t.Errorf("peeling one vertex expanded %d vertices in a 1k component and %d in an 8k one; want equal and a handful", small, large)
	}
}
