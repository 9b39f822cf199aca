package labeling

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/intervals"
)

// randomMask marks each of n vertices spatial with probability p.
func randomMask(rng *rand.Rand, n int, p float64) []bool {
	mask := make([]bool, n)
	for v := range mask {
		mask[v] = rng.Float64() < p
	}
	return mask
}

// Ranked returns the rank-keyed labeling over spatial that l, a
// post-keyed one, projects to: each interval [lo, hi] becomes the ranks
// of the spatial vertices whose posts it covers, an empty one is
// dropped, and neighbours that meet are merged. The map from posts to
// ranks is monotone, so the result is canonical and equal, set for set,
// to what Build with Options.Spatial computes directly. Post and Order
// are shared with l. It is the reference the rank-keyed Build is
// checked against; a build should not take this detour.
func (l *Labeling) Ranked(spatial []bool) *Labeling {
	l.mustBePostKeyed("Ranked")
	// below[p] counts the spatial vertices with post ≤ p.
	below := make([]int32, len(l.Order)+1)
	for i, v := range l.Order {
		below[i+1] = below[i]
		if spatial[v] {
			below[i+1]++
		}
	}
	out := &Labeling{
		Post:    l.Post,
		Order:   l.Order,
		off:     make([]uint64, 1, len(l.off)),
		data:    make(intervals.Set, 0, l.TotalLabels()),
		Spatial: spatial,
	}
	for v := range l.NumVertices() {
		start := len(out.data)
		for _, iv := range l.Label(v) {
			lo, hi := below[iv.Lo-1]+1, below[iv.Hi]
			if lo > hi {
				continue
			}
			if n := len(out.data); n > start && out.data[n-1].Hi+1 >= lo {
				out.data[n-1].Hi = hi
				continue
			}
			out.data = append(out.data, intervals.Interval{Lo: lo, Hi: hi})
		}
		out.off = append(out.off, uint64(len(out.data)))
		out.UncompressedCount += out.Label(v).Cardinality()
	}
	out.CompressedCount = out.TotalLabels()
	return out
}

// TestRankBuildEqualsProjection is the rank keying's property: on random
// DAGs with random spatial masks, the direct build — the merge in which
// only spatial vertices contribute a singleton, their rank — equals the
// projection of the post-keyed build onto ranks, set for set, with the
// same Table 6 counters, sequentially and at four workers. Both are
// what the descendant sets say: L(v) holds exactly the ranks of v's
// spatial descendants.
func TestRankBuildEqualsProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(150)
		g := randomDAG(rng, n, rng.Intn(4*n))
		mask := randomMask(rng, n, []float64{0, 0.1, 0.5, 1}[trial%4])
		policy := []graph.ForestPolicy{graph.ForestDFS, graph.ForestBFS}[trial%2]
		want := Build(g, Options{Forest: policy}).Ranked(mask)
		keys := want.Keys()
		for v := 0; v < n; v++ {
			var ranks []int32
			for u, ok := range g.Reachable(v) {
				if ok && mask[u] {
					ranks = append(ranks, keys[u])
				}
			}
			slices.Sort(ranks)
			var got []int32
			for _, iv := range want.Label(v) {
				for r := iv.Lo; r <= iv.Hi; r++ {
					got = append(got, r)
				}
			}
			if !want.Label(v).IsCanonical() || !slices.Equal(got, ranks) {
				t.Fatalf("trial %d: projected L(%d) = %v, the spatial descendants' ranks are %v", trial, v, want.Label(v), ranks)
			}
		}
		for _, par := range []int{1, 4} {
			got := Build(g, Options{Forest: policy, Parallelism: par, Spatial: mask})
			if !sameColumns(got, want) || got.UncompressedCount != want.UncompressedCount || got.CompressedCount != want.CompressedCount {
				t.Fatalf("trial %d par %d: ranked build differs from the projection", trial, par)
			}
		}
	}
}

// TestRankKeyedRefusesPostQueries: the queries that read a label as
// posts panic on a rank-keyed labeling rather than answer from ranks.
func TestRankKeyedRefusesPostQueries(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	l := Build(g, Options{Spatial: []bool{false, false, true}})
	for name, call := range map[string]func(){
		"Reach":       func() { l.Reach(0, 2) },
		"ReachTraced": func() { l.ReachTraced(0, 2, nil) },
		"Descendants": func() { l.Descendants(0, func(int32) bool { return true }) },
		"Ranked":      func() { l.Ranked(l.Spatial) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a rank-keyed labeling did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestRankLabelsCostIndependentOfUsers is the count guard of the rank
// keying: hanging chains of user vertices under existing vertices gives
// their posts to the middle of venue runs, which splits the post-keyed
// labels above them, but leaves the rank-keyed labels — what 3DReach
// stores — exactly as they were, interval for interval; the new users'
// own labels are empty.
func TestRankLabelsCostIndependentOfUsers(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	var posts, grownPosts int64
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(200)
		base := randomDAG(rng, n, 3*n)
		mask := randomMask(rng, n, 0.4)

		// One chain of 1–3 users under each of n random vertices. The users
		// take the lowest ids, so a depth-first walk enters a chain before
		// the vertex's other children and its posts land ahead of theirs;
		// the other vertices shift up by the user count and keep their
		// relative order, so their ranks stay.
		heads, lens, users := make([]int, n), make([]int, n), 0
		for i := range heads {
			heads[i], lens[i] = rng.Intn(n), 1+rng.Intn(3)
			users += lens[i]
		}
		b := graph.NewBuilder(n + users)
		base.Edges(func(u, v int) { b.AddEdge(users+u, users+v) })
		w := 0
		for i, head := range heads {
			at := users + head
			for k := 0; k < lens[i]; k++ {
				b.AddEdge(at, w)
				at, w = w, w+1
			}
		}
		g := b.Build()
		grown := append(make([]bool, users), mask...)

		before := Build(base, Options{Spatial: mask})
		after := Build(g, Options{Spatial: grown})
		if got, want := after.TotalLabels(), before.TotalLabels(); got != want {
			t.Fatalf("trial %d: user chains moved the ranked interval count from %d to %d", trial, want, got)
		}
		for v := 0; v < n; v++ {
			if !after.Label(users + v).Equal(before.Label(v)) {
				t.Fatalf("trial %d: user chains changed L(%d) from %v to %v", trial, v, before.Label(v), after.Label(users+v))
			}
		}
		posts += Build(base, Options{}).TotalLabels()
		grownPosts += Build(g, Options{}).TotalLabels() - int64(users)
	}
	// Each user's post-keyed label is at least its own singleton; net of
	// those, the chains must still have split labels above them.
	if grownPosts <= posts {
		t.Fatalf("the user chains split no post-keyed label (%d → %d intervals net of their own): the guard is vacuous", posts, grownPosts)
	}
	t.Logf("post-keyed intervals %d → %d net of the users' own; rank-keyed unchanged", posts, grownPosts)
}
