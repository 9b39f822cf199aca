package incr

import (
	"math/rand"
	"runtime"
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

// TestPeelCertificate pins the split probe's outcomes on small graphs: a
// certified peel (of one vertex and of more, closed from either
// endpoint); the bridge, where the peeled vertex was the only way
// between two halves of the component, so that the certificate peels a
// second closure or, once both endpoints' closures have run dry,
// certifies the rest around a pivot; the chain, where both endpoints
// leave and the rest is certified around a pivot; and a rest that is
// not strongly connected, where the pivot certificate fails too and the
// exhaustive decomposition takes over.
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
	// Ring 0..5 left through 0 → 6 → 7 → 3: deleting 6 → 7 leaves 6, 7
	// and the ring.
	chain := append(ring(0, 5), [2]int{0, 6}, [2]int{6, 7}, [2]int{7, 3})
	// Ring 0..7 into 11 → 12 → ring 8..10, which goes back only by 9 → 1:
	// deleting 11 → 12 leaves the two rings apart, and z₀'s closure in the
	// smaller one runs dry before the search from the larger one does.
	twoRings := append(append(ring(0, 7), ring(8, 10)...), [2]int{0, 11}, [2]int{11, 12}, [2]int{12, 8}, [2]int{9, 1})

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
		{"bridge-forward-peels-again", 7, bridge, [2]int{6, 1}, 1, 3, inR, 3},
		{"bridge-backward-pivots", 7, bridge, [2]int{4, 6}, 3, 1, inR | inB, 3},
		{"chain-pivots", 8, chain, [2]int{6, 7}, 1, 1, inR | inB, 3},
		{"pivot-fails", 13, twoRings, [2]int{11, 12}, 1, 1, 0, 4},
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

// giantEdges is a ring over users 0..n-1 with a chord every 50 vertices:
// one strongly connected component whose members reach each other in
// a few steps wherever a search starts.
func giantEdges(n int) (edges [][2]int) {
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n})
		if v%50 == 0 {
			edges = append(edges, [2]int{v, (v + 100) % n})
		}
	}
	return edges
}

// TestPeelCostIndependentOfComponentSize is the count guard on the
// split path: splitting a few stream vertices off a strongly connected
// component expands the same number of vertices whether the component
// has a thousand members or eight thousand. The counts repeat exactly;
// a split that traverses the big side, by a probe or by the SCC pass,
// visits one vertex per member and shows at once.
func TestPeelCostIndependentOfComponentSize(t *testing.T) {
	for _, tc := range []struct {
		name string
		// extra are the stream vertices' edges, over a giant of n members
		// and stream vertices n and n+1; del is the deleted edge.
		extra      func(n int) [][2]int
		del        func(n int) [2]int
		components int
	}{
		// Vertex n on a detour 10 → n → 13 around three ring vertices that
		// carry no chord; deleting n → 13 peels it.
		{"peel-one",
			func(n int) [][2]int { return [][2]int{{10, n}, {n, 13}} },
			func(n int) [2]int { return [2]int{n, 13} }, 3},
		// Vertex n+1 hangs off the giant through n alone: deleting 10 → n
		// peels n, the search from n+1 runs dry, and n+1 is peeled too.
		{"peel-twice",
			func(n int) [][2]int { return [][2]int{{10, n}, {n, 13}, {n, n + 1}, {n + 1, 20}} },
			func(n int) [2]int { return [2]int{10, n} }, 3},
		// The chain 10 → n → n+1 → 13 loses its middle edge: both
		// endpoints' closures run dry, and the giant is certified around
		// a pivot.
		{"pivot",
			func(n int) [][2]int { return [][2]int{{10, n}, {n, n + 1}, {n + 1, 13}} },
			func(n int) [2]int { return [2]int{n, n + 1} }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			steps := func(n int) int {
				x := socialIndex(n+2, append(giantEdges(n), tc.extra(n)...))
				if x.liveComps > 2 {
					t.Fatalf("n=%d: fixture has %d components, want the giant and at most one isolated vertex", n, x.liveComps)
				}
				del := tc.del(n)
				if err := x.DeleteEdge(del[0], del[1]); err != nil {
					t.Fatal(err)
				}
				before := x.probeSteps
				if err := x.Validate(); err != nil { // flushes the split check
					t.Fatal(err)
				}
				if s := x.Stats(); s.Splits != 1 || s.LiveComps != tc.components || len(x.members[x.comp.at(0)]) != n {
					t.Fatalf("n=%d: want one split leaving the %d-member giant among %d components, got %+v", n, n, tc.components, s)
				}
				return x.probeSteps - before
			}
			small, large := steps(1000), steps(8000)
			if small != large || small == 0 || small > 24 {
				t.Errorf("the split expanded %d vertices in a 1k component and %d in an 8k one; want equal and a handful", small, large)
			}
		})
	}
}

// TestSplitPartitionCostIndependentOfComponentSize is the count guard
// on a split's partition: peeling a stream vertex off a giant of 2k
// members, or of 16k, visits the same members — the probes' and the
// one that departs — and allocates the same bytes at both sizes. A
// partition that walks the giant's member list visits one member per
// vertex, and one that copies the kept members allocates 4 B each. A
// first peel warms the writer's scratch, which grows with |V| once.
func TestSplitPartitionCostIndependentOfComponentSize(t *testing.T) {
	var steps, bytes [2]uint64
	for i, n := range []int{2000, 16000} {
		x := socialIndex(n+2, append(giantEdges(n), [2]int{10, n}, [2]int{n, 13}, [2]int{20, n + 1}, [2]int{n + 1, 23}))
		if err := x.DeleteEdge(n, 13); err != nil {
			t.Fatal(err)
		}
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := x.DeleteEdge(n+1, 23); err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before, alloc := x.probeSteps, ms.TotalAlloc
		x.flushRelabels()
		runtime.ReadMemStats(&ms)
		steps[i], bytes[i] = uint64(x.probeSteps-before), ms.TotalAlloc-alloc
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
		if s := x.Stats(); s.Splits != 2 || s.LiveComps != 3 || len(x.members[x.comp.at(0)]) != n {
			t.Fatalf("n=%d: want two peels leaving the %d-member giant among 3 components, got %+v", n, n, s)
		}
	}
	if steps[0] != steps[1] || steps[0] > 24 {
		t.Errorf("the second peel visited %d members of a 2k component and %d of a 16k one; want equal and a handful", steps[0], steps[1])
	}
	if bytes[1] > bytes[0]+1024 {
		t.Errorf("the second peel allocated %d B in a 2k component and %d B in a 16k one; want no growth with the component", bytes[0], bytes[1])
	}
}

// TestSplitRelabelCostIndependentOfComponentSize is the count guard on
// the relabel after a split: peeling a stream vertex off a giant that
// checks into venues relabels the fresh piece alone — not the giant,
// whose label would be a merge over one successor per venue — at a
// thousand members as at eight thousand, from either endpoint. Where
// the peeled vertex held the giant's only edge to a venue, the giant
// does lose a successor; it is then relabeled, loses that venue's post,
// and answers as an index built from scratch does.
func TestSplitRelabelCostIndependentOfComponentSize(t *testing.T) {
	// Users 0..n-1 form the giant; every eighth checks into its own
	// venue. Stream user w sits on the detour 10 → w → 13, and with
	// onlyVenue checks into venue w+1, which nobody else visits.
	network := func(n int, onlyVenue bool) (*dataset.Network, int) {
		venues := n / 8
		w := n + venues
		total := w + 1
		edges := append(giantEdges(n), [2]int{10, w}, [2]int{w, 13})
		if onlyVenue {
			total++
			edges = append(edges, [2]int{w, w + 1})
		}
		for i := 0; i < venues; i++ {
			edges = append(edges, [2]int{8 * i, n + i})
		}
		spatial := make([]bool, total)
		points := make([]geom.Point, total)
		for v := n; v < total; v++ {
			if v != w {
				spatial[v] = true
				points[v] = geom.Pt(float64(v%100), float64(v/100%100))
			}
		}
		return &dataset.Network{Name: "giant", Graph: graph.FromEdges(total, edges), Spatial: spatial, Points: points}, w
	}
	for _, tc := range []struct {
		name      string
		onlyVenue bool
		del       func(w int) [2]int
		relabeled int // components re-derived by the flush
	}{
		{"peel-R", false, func(w int) [2]int { return [2]int{w, 13} }, 1},
		{"peel-B", false, func(w int) [2]int { return [2]int{10, w} }, 1},
		{"peel-B-only-venue", true, func(w int) [2]int { return [2]int{10, w} }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			relabels := func(n int) (passes, comps int) {
				net, w := network(n, tc.onlyVenue)
				x := New(dataset.Prepare(net), Options{})
				before := x.Stats()
				del := tc.del(w)
				if err := x.DeleteEdge(del[0], del[1]); err != nil {
					t.Fatal(err)
				}
				if err := x.Validate(); err != nil { // flushes the split and the relabel
					t.Fatal(err)
				}
				after := x.Stats()
				if after.Splits != before.Splits+1 || len(x.members[x.comp.at(0)]) != n {
					t.Fatalf("n=%d: want one split peeling w off the %d-member giant, got %+v", n, n, after)
				}
				if tc.onlyVenue {
					giant, venue := x.comp.at(0), x.comp.at(int32(w+1))
					if x.labels.at(giant).ContainsCanonical(x.post.at(venue)) {
						t.Errorf("n=%d: the giant's label still holds the post of the venue only w visited", n)
					}
					m := newMirror(net)
					delete(m.edges, del)
					fresh := New(dataset.Prepare(m.network()), Options{})
					all := net.Space()
					for v := 0; v < x.n; v++ {
						if got, want := x.RangeReach(v, all), fresh.RangeReach(v, all); got != want {
							t.Fatalf("n=%d: RangeReach(%d, space) = %v, a from-scratch build says %v", n, v, got, want)
						}
					}
				}
				return after.ConeRelabels - before.ConeRelabels, after.RelabeledComps - before.RelabeledComps
			}
			smallPasses, smallComps := relabels(1000)
			largePasses, largeComps := relabels(8000)
			if smallPasses != largePasses || smallComps != largeComps || smallPasses != 1 || smallComps != tc.relabeled {
				t.Errorf("the flush ran %d cone relabels over %d components at 1k members and %d over %d at 8k; want 1 over %d at both",
					smallPasses, smallComps, largePasses, largeComps, tc.relabeled)
			}
		})
	}
}

// TestSplitPushesOnlyReachedPosts pins the fresh posts a split pushes
// upward: a predecessor of one fresh piece gains the posts of the pieces
// it reaches, not those of a sibling piece it does not. The kept piece
// is no relabel seed here, so an extra post would stay in its label and
// answer with a false positive.
func TestSplitPushesOnlyReachedPosts(t *testing.T) {
	// Ring 0..5 leaves through 0 → 6 → 7 → 3, and 7 is on a cycle with
	// venue 8: deleting 6 → 7 leaves the ring, 6, and {7, 8}.
	const n = 9
	ring := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}
	edges := append(ring, [2]int{0, 6}, [2]int{6, 7}, [2]int{7, 3}, [2]int{7, 8}, [2]int{8, 7})
	spatial := make([]bool, n)
	points := make([]geom.Point, n)
	spatial[8], points[8] = true, geom.Pt(50, 50)
	x := New(dataset.Prepare(&dataset.Network{Name: "sibling", Graph: graph.FromEdges(n, edges), Spatial: spatial, Points: points}), Options{})
	around := geom.NewRect(40, 40, 60, 60)
	if !x.RangeReach(0, around) {
		t.Fatal("before the delete the ring should reach venue 8")
	}
	if err := x.DeleteEdge(6, 7); err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := x.Stats(); s.Splits != 1 || s.LiveComps != 3 {
		t.Fatalf("want one split into the ring, 6 and {7, 8}, got %+v", s)
	}
	for v := 0; v < n; v++ {
		if got, want := x.RangeReach(v, around), v == 7 || v == 8; got != want {
			t.Errorf("RangeReach(%d, around venue 8) = %v, want %v", v, got, want)
		}
	}
}
