package labeling

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/intervals"
)

// compressConcat is the per-vertex step the builder ran before it merged
// canonical runs: own singleton plus every successor set, gathered into
// one buffer and compressed by one comparison sort. It is the reference
// the merge is tested against.
func compressConcat(post int32, succ []intervals.Set) intervals.Set {
	buf := intervals.Set{{Lo: post, Hi: post}}
	for _, s := range succ {
		buf = append(buf, s...)
	}
	return buf.Compress()
}

// star returns the label sets and a graph in which vertex 0 has the
// given sets as its successors' (vertices 1..k), so merger.label can be
// driven with sets no real labeling would produce — duplicates among
// them.
func star(succ []intervals.Set) ([]intervals.Set, *graph.Graph) {
	b := graph.NewBuilder(len(succ) + 1)
	for i := range succ {
		b.AddEdge(0, i+1)
	}
	return append([]intervals.Set{nil}, succ...), b.Build()
}

// runs builds a set from lo, hi pairs.
func runs(bounds ...int32) intervals.Set {
	var s intervals.Set
	for i := 0; i+1 < len(bounds); i += 2 {
		s = s.Add(bounds[i], bounds[i+1])
	}
	return s
}

// mergeRow is one vertex for merger.label: its post and its successors'
// label sets.
type mergeRow struct {
	name string
	post int32
	succ []intervals.Set
}

func TestMergeLabelEqualsCompress(t *testing.T) {
	rows := []mergeRow{
		{"sink", 4, nil},
		{"one successor, adjacent below", 4, []intervals.Set{runs(1, 3)}},
		{"adjacent runs fuse", 9, []intervals.Set{runs(1, 3), runs(4, 5)}},
		{"own post bridges two runs", 4, []intervals.Set{runs(1, 3), runs(5, 8)}},
		{"duplicate sets", 20, []intervals.Set{runs(1, 3, 7, 9), runs(1, 3, 7, 9), runs(1, 3, 7, 9)}},
		{"subsumed", 10, []intervals.Set{runs(1, 9), runs(2, 3, 5, 5), runs(4, 4)}},
		{"own post covered already", 2, []intervals.Set{runs(1, 9), runs(12, 14)}},
	}
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		// Fan-out 0..200 over a domain a few times the fan-out, so that
		// overlaps, adjacency and both of the merge's branches occur.
		k := rng.Intn(5)
		if trial%3 == 0 {
			k = rng.Intn(201)
		}
		domain := 8 + rng.Intn(4*k+40)
		succ := make([]intervals.Set, k)
		for i := range succ {
			if i > 0 && rng.Intn(4) == 0 {
				succ[i] = succ[rng.Intn(i)] // a duplicate set
				continue
			}
			at := int32(1 + rng.Intn(domain))
			for n := rng.Intn(12); n >= 0 && int(at) <= domain; n-- {
				hi := at + int32(rng.Intn(3)*rng.Intn(4))
				succ[i] = append(succ[i], intervals.Interval{Lo: at, Hi: hi})
				at = hi + 2 + int32(rng.Intn(domain/4+1))
			}
		}
		rows = append(rows, mergeRow{"random", int32(1 + rng.Intn(domain)), succ})
	}

	var m merger // one merger for all rows: its scratch must not leak between them
	for i, row := range rows {
		sets, g := star(row.succ)
		before := make([]intervals.Set, len(row.succ))
		for j, s := range row.succ {
			before[j] = s.Clone()
		}
		got := m.label(sets, g, 0, row.post)
		want := compressConcat(row.post, row.succ)
		if !got.Equal(want) {
			t.Fatalf("row %d (%s): post %d, successors %v: merge = %v, Compress = %v", i, row.name, row.post, row.succ, got, want)
		}
		// The stored set must alias no input: overwrite it and look.
		for j := range got {
			got[j] = intervals.Interval{Lo: -1, Hi: -1}
		}
		for j, s := range row.succ {
			if !s.Equal(before[j]) {
				t.Fatalf("row %d (%s): result aliases successor %d", i, row.name, j)
			}
		}
	}
}

// TestBuildEqualsGatherAndCompress replays the former builder — reverse
// topological order, gather, Compress — beside Build on random DAGs
// with hubs of up to 200 successors over shared descendants, and
// demands the same label set for every vertex.
func TestBuildEqualsGatherAndCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(400)
		// Edges run from lower to higher rank; the hubs are the lowest
		// ranks, so the edges drawn at a hub leave it.
		order := rng.Perm(n)
		rank := make([]int, n)
		for i, v := range order {
			rank[v] = i
		}
		b := graph.NewBuilder(n)
		edge := func(u, v int) {
			if rank[u] > rank[v] {
				u, v = v, u
			}
			if u != v {
				b.AddEdge(u, v)
			}
		}
		for i := rng.Intn(3 * n); i > 0; i-- {
			edge(rng.Intn(n), rng.Intn(n))
		}
		for hub := rng.Intn(min(n, 4)); hub >= 0; hub-- {
			for i := rng.Intn(201); i > 0; i-- {
				edge(order[hub], rng.Intn(n))
			}
		}
		g := b.Build()
		for _, policy := range []graph.ForestPolicy{graph.ForestDFS, graph.ForestBFS} {
			l := Build(g, Options{Forest: policy})
			topo, _ := g.TopoOrder()
			want := make([]intervals.Set, n)
			for i := n - 1; i >= 0; i-- {
				v := topo[i]
				var succ []intervals.Set
				for _, u := range g.Out(int(v)) {
					succ = append(succ, want[u])
				}
				want[v] = compressConcat(l.Post[v], succ)
				if !l.Label(int(v)).Equal(want[v]) {
					t.Fatalf("trial %d policy %d vertex %d (%d successors): Build = %v, gather+Compress = %v",
						trial, policy, v, len(succ), l.Label(int(v)), want[v])
				}
			}
		}
	}
}
