package rangereach_test

import (
	"math/rand"
	"strings"
	"testing"

	rangereach "repro"
)

// explainNetwork is a fuzz-sized synthetic network shared by the parity
// tests (built once; index construction dominates the test time).
func explainNetwork(t testing.TB) *rangereach.Network {
	t.Helper()
	return rangereach.GenerateSynthetic(rangereach.SyntheticConfig{
		Name:        "explain-test",
		Users:       400,
		Venues:      200,
		AvgFriends:  4,
		AvgCheckins: 3,
		Clusters:    6,
		Seed:        42,
	})
}

// explainQueries builds a deterministic mix of query regions: small,
// large, the whole space, and degenerate empty corners.
func explainQueries(net *rangereach.Network, n int, seed int64) []struct {
	V int
	R rangereach.Rect
} {
	rng := rand.New(rand.NewSource(seed))
	space := net.Space()
	w, h := space.MaxX-space.MinX, space.MaxY-space.MinY
	out := make([]struct {
		V int
		R rangereach.Rect
	}, n)
	for i := range out {
		out[i].V = rng.Intn(net.NumVertices())
		switch i % 4 {
		case 0: // small box
			x := space.MinX + rng.Float64()*w
			y := space.MinY + rng.Float64()*h
			out[i].R = rangereach.NewRect(x, y, x+w*0.02, y+h*0.02)
		case 1: // medium box
			x := space.MinX + rng.Float64()*w
			y := space.MinY + rng.Float64()*h
			out[i].R = rangereach.NewRect(x, y, x+w*0.25, y+h*0.25)
		case 2: // whole space: positive for any vertex reaching a venue
			out[i].R = space
		default: // far outside the space: always negative
			out[i].R = rangereach.NewRect(space.MaxX+10, space.MaxY+10, space.MaxX+11, space.MaxY+11)
		}
	}
	return out
}

// TestExplainParityAllMethods is Explain's central invariant: it
// must return exactly the boolean RangeReach returns, for every method
// (including the extended SpaReach variants) and both SCC policies. It
// also pins 3DReach-Rev's counters, which count tree nodes, not labels.
func TestExplainParityAllMethods(t *testing.T) {
	net := explainNetwork(t)
	queries := explainQueries(net, 60, 7)

	all := append([]rangereach.Method{rangereach.Naive}, rangereach.Methods...)
	all = append(all, rangereach.ExtendedMethods...)
	for _, m := range all {
		idx, err := net.Build(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for _, q := range queries {
			want := idx.RangeReach(q.V, q.R)
			got, stats := idx.Explain(q.V, q.R)
			if got != want {
				t.Fatalf("%v: Explain(%d, %+v) = %v, RangeReach = %v", m, q.V, q.R, got, want)
			}
			if stats.Method == "" {
				t.Fatalf("%v: empty stats.Method", m)
			}
			if stats.CacheHit {
				t.Fatalf("%v: direct Explain reported a cache hit", m)
			}
			// 3DReach-Rev reads no label: its one plane query walks the
			// segment tree (DESIGN.md §9).
			if m == rangereach.ThreeDReachRev && want && (stats.Labels != 0 || stats.IndexNodes == 0) {
				t.Fatalf("%v: positive query reports %d labels and %d index nodes, want 0 and > 0", m, stats.Labels, stats.IndexNodes)
			}
		}
	}

	// MBR policy for the methods that support it.
	for _, m := range []rangereach.Method{rangereach.SpaReachBFL, rangereach.SpaReachINT} {
		idx, err := net.Build(m, rangereach.WithMBRPolicy())
		if err != nil {
			t.Fatalf("%v/MBR: %v", m, err)
		}
		for _, q := range queries {
			want := idx.RangeReach(q.V, q.R)
			got, _ := idx.Explain(q.V, q.R)
			if got != want {
				t.Fatalf("%v/MBR: Explain(%d, %+v) = %v, RangeReach = %v", m, q.V, q.R, got, want)
			}
		}
	}
}

// TestExplainParityBackends covers both of 3DReach's spatial indexes:
// the point tiles of a point-only network and the box R-tree of one with
// extents.
func TestExplainParityBackends(t *testing.T) {
	net := explainNetwork(t)
	queries := explainQueries(net, 40, 11)
	for name, net := range map[string]*rangereach.Network{"tiles": net, "boxes": withVenueExtents(t, net)} {
		idx, err := net.Build(rangereach.ThreeDReach)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range queries {
			want := idx.RangeReach(q.V, q.R)
			got, stats := idx.Explain(q.V, q.R)
			if got != want {
				t.Fatalf("%s: Explain(%d, %+v) = %v, RangeReach = %v", name, q.V, q.R, got, want)
			}
			if want && stats.Labels == 0 {
				t.Fatalf("%s: positive query inspected no labels", name)
			}
		}
	}
}

// TestExplainTileCounters pins what 3DReach's point tiles count: a slab
// visited is a node, a cell whose bounds meet the region a leaf, and a
// point x/y-tested an entry. A region containing every cell decides each
// from its posts alone, so it tests no entries; a small region cuts
// through cells and tests the points whose posts are in the label.
func TestExplainTileCounters(t *testing.T) {
	net := explainNetwork(t)
	idx := net.MustBuild(rangereach.ThreeDReach)
	space := net.Space()
	entries := int64(0)
	for v := 0; v < net.NumVertices(); v++ {
		ok, qs := idx.Explain(v, space)
		if qs.IndexNodes == 0 || qs.IndexLeaves == 0 {
			t.Fatalf("Explain(%d, space) = %v visited %d slabs and %d cells", v, ok, qs.IndexNodes, qs.IndexLeaves)
		}
		if qs.IndexEntries != 0 {
			t.Fatalf("Explain(%d, space) = %v x/y-tested %d points of cells the region contains", v, ok, qs.IndexEntries)
		}
		for _, q := range explainQueries(net, 4, int64(v))[:2] {
			_, qs := idx.Explain(v, q.R)
			entries += qs.IndexEntries
		}
	}
	if entries == 0 {
		t.Error("no query on a region cutting through cells x/y-tested a point")
	}
}

// TestExplainStatsSemantics pins the per-method counter meanings on the
// paper's Figure 1 example, where the expected work is known by hand.
func TestExplainStatsSemantics(t *testing.T) {
	net := figure1(t)
	region := rangereach.NewRect(60, 55, 90, 95) // contains venues 4 and 7

	check := func(m rangereach.Method, f func(t *testing.T, qs rangereach.QueryStats)) {
		t.Run(m.String(), func(t *testing.T) {
			idx, err := net.Build(m)
			if err != nil {
				t.Fatal(err)
			}
			ok, qs := idx.Explain(0, region)
			if !ok {
				t.Fatal("Explain(a, R) = false, want true")
			}
			if qs.Method != m.String() {
				t.Errorf("stats.Method = %q, want %q", qs.Method, m)
			}
			f(t, qs)
		})
	}

	check(rangereach.ThreeDReach, func(t *testing.T, qs rangereach.QueryStats) {
		if qs.Labels == 0 {
			t.Error("3DReach inspected no labels")
		}
		if qs.IndexLeaves == 0 && qs.IndexNodes == 0 {
			t.Error("3DReach visited no index nodes")
		}
		if qs.ReachProbes != 0 || qs.Candidates != 0 || qs.Enumerated != 0 {
			t.Errorf("3DReach reported foreign counters: %+v", qs)
		}
	})
	t.Run("3DReach counts the whole label", func(t *testing.T) {
		// Vertex 9's label is three intervals, searched as one union:
		// a hit and a miss both consult all three.
		idx := net.MustBuild(rangereach.ThreeDReach)
		for _, r := range []rangereach.Rect{region, rangereach.NewRect(200, 200, 300, 300)} {
			if ok, qs := idx.Explain(9, r); qs.Labels != 3 {
				t.Errorf("Explain(9, %+v) = %v with Labels = %d, want 3", r, ok, qs.Labels)
			}
		}
	})
	check(rangereach.SocReach, func(t *testing.T, qs rangereach.QueryStats) {
		if qs.Enumerated == 0 {
			t.Error("SocReach enumerated no descendants")
		}
		if qs.Members == 0 {
			t.Error("SocReach tested no members")
		}
		if qs.IndexNodes != 0 || qs.IndexLeaves != 0 {
			t.Errorf("SocReach touched a spatial index: %+v", qs)
		}
	})
	check(rangereach.SpaReachBFL, func(t *testing.T, qs rangereach.QueryStats) {
		if qs.Candidates == 0 {
			t.Error("SpaReach materialized no candidates")
		}
		if qs.ReachProbes == 0 {
			t.Error("SpaReach issued no reachability probes")
		}
		if qs.ReachProbes > qs.Candidates {
			t.Errorf("probes (%d) > candidates (%d)", qs.ReachProbes, qs.Candidates)
		}
	})
	check(rangereach.GeoReach, func(t *testing.T, qs rangereach.QueryStats) {
		if qs.GraphVisited == 0 {
			t.Error("GeoReach expanded no SPA-Graph vertices")
		}
	})
	check(rangereach.Naive, func(t *testing.T, qs rangereach.QueryStats) {
		if qs.GraphVisited == 0 {
			t.Error("NaiveBFS visited no vertices")
		}
	})
}

// TestExplainDynamicParity covers the updatable engine and its
// snapshots across an update stream.
func TestExplainDynamicParity(t *testing.T) {
	net := explainNetwork(t)
	idx := net.BuildDynamic()
	queries := explainQueries(net, 30, 13)

	step := func(label string) {
		for _, q := range queries {
			want := idx.RangeReach(q.V, q.R)
			got, qs := idx.Explain(q.V, q.R)
			if got != want {
				t.Fatalf("%s: Explain(%d, %+v) = %v, RangeReach = %v", label, q.V, q.R, got, want)
			}
			if want && qs.Labels == 0 {
				t.Fatalf("%s: positive query inspected no labels", label)
			}
		}
		snap := idx.Snapshot()
		for _, q := range queries {
			want := snap.RangeReach(q.V, q.R)
			got, qs := snap.Explain(q.V, q.R)
			if got != want {
				t.Fatalf("%s/snapshot: Explain(%d, %+v) = %v, RangeReach = %v", label, q.V, q.R, got, want)
			}
			if qs.Method != "3DReach-Dynamic" {
				t.Fatalf("%s/snapshot: stats.Method = %q", label, qs.Method)
			}
			// One pass over the whole label and at most one over the
			// overlay, however fragmented the label is.
			if st := idx.UpdateStats(); qs.Labels > int64(st.MaxLabelIntervals) || qs.OverlayEntries > int64(st.OverlayLen) {
				t.Fatalf("%s/snapshot: inspected %d label intervals and %d overlay entries; the index holds at most %d and %d",
					label, qs.Labels, qs.OverlayEntries, st.MaxLabelIntervals, st.OverlayLen)
			}
		}
	}

	step("initial")
	// Grow the network: new users, venues and edges, enough venues to
	// keep a non-empty overlay (below the rebuild threshold).
	rng := rand.New(rand.NewSource(99))
	space := net.Space()
	point := func() (x, y float64) {
		return space.MinX + rng.Float64()*(space.MaxX-space.MinX),
			space.MinY + rng.Float64()*(space.MaxY-space.MinY)
	}
	var added [][2]int
	for i := 0; i < 40; i++ {
		u := idx.AddUser()
		x, y := point()
		v := idx.AddVenue(x, y)
		from := rng.Intn(net.NumVertices())
		_ = idx.AddEdge(from, u)
		_ = idx.AddEdge(u, v)
		added = append(added, [2]int{from, u}, [2]int{u, v})
	}
	step("after-updates")

	// Shrink it again: most of those edges go, back edges close cycles
	// that the deletes then break (merges and splits retire posts, which
	// is what fragments labels), and venues of the original network move
	// (tombstones in the base tree). A snapshot every 8 updates, as
	// rrserve publishes batches, keeps each epoch within the work budget
	// that would otherwise rebuild, and re-densify, the whole index.
	for i := 0; i < len(added); i += 2 {
		_ = idx.AddEdge(added[i][1], added[i][0])
		if i%16 == 14 {
			idx.Snapshot()
		}
	}
	rng.Shuffle(len(added), func(i, j int) { added[i], added[j] = added[j], added[i] })
	for i, e := range added[:len(added)*3/4] {
		if err := idx.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			idx.Snapshot()
		}
	}
	for v, moved := 0, 0; moved < 30; v++ {
		if net.IsSpatial(v) {
			x, y := point()
			if err := idx.MoveVenue(v, x, y); err != nil {
				t.Fatal(err)
			}
			moved++
		}
	}
	step("after-deletes")
	// (Splits are replayed at the first read after the deletes.)
	if st := idx.UpdateStats(); st.StaleLen == 0 || st.MaxLabelIntervals < 2 || st.Splits == 0 {
		t.Fatalf("the delete phase left no tombstones, no fragmented label or no split: %+v", st)
	}
}

// TestExplainPanicsOutOfRange mirrors RangeReach's slice semantics.
func TestExplainPanicsOutOfRange(t *testing.T) {
	idx := figure1(t).MustBuild(rangereach.ThreeDReach)
	defer func() {
		if recover() == nil {
			t.Error("Explain(-1) did not panic")
		}
	}()
	idx.Explain(-1, rangereach.NewRect(0, 0, 1, 1))
}

// TestQueryStatsString smoke-tests the log rendering.
func TestQueryStatsString(t *testing.T) {
	idx := figure1(t).MustBuild(rangereach.SpaReachBFL)
	_, qs := idx.Explain(0, rangereach.NewRect(60, 55, 90, 95))
	s := qs.String()
	for _, want := range []string{"SpaReach-BFL", "candidates=", "probes="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	qs.CacheHit = true
	if !strings.Contains(qs.String(), "cache-hit") {
		t.Error("String() missing cache-hit marker")
	}
}

// BenchmarkTraceOverhead is the PR's overhead guard: the nil-span path
// (every plain RangeReach) must not measurably regress against the
// instrumented engines, and the traced path documents the cost of
// always-on explanation. Compare disabled vs enabled:
//
//	go test -bench=BenchmarkTraceOverhead -benchtime=2s .
func BenchmarkTraceOverhead(b *testing.B) {
	net := explainNetwork(b)
	queries := explainQueries(net, 64, 5)
	for _, m := range []rangereach.Method{rangereach.ThreeDReach, rangereach.SpaReachBFL} {
		idx, err := net.Build(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.String()+"/disabled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				idx.RangeReach(q.V, q.R)
			}
		})
		b.Run(m.String()+"/enabled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				idx.Explain(q.V, q.R)
			}
		})
	}
}
