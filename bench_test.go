// Benchmarks of the build path and the dynamic writer that
// EXPERIMENTS.md cites: the interval labeling alone, graph.Builder,
// 3DReach's tile build, the dynamic index's construction, one epoch of
// the benchmark module's churn workload, and 3DReach-Rev's build and
// queries.
//
//	go test -run '^$' -bench 'BuildLabeling|GraphBuild|TilesNew|BuildDynamic|ChurnEpoch|ThreeDReachRev' -benchmem .
//
// cmd/rrbench regenerates the paper's tables and figures; the benchmark
// module (benchmark/) measures query latency, index size, cold start and
// batch throughput.
package rangereach_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/labeling"
)

// BenchmarkBuildLabeling times the interval labeling alone, forward and
// reversed, on the fragmented preset whose label merges dominate index
// construction; intervals/op is the size of what it builds.
func BenchmarkBuildLabeling(b *testing.B) {
	dag := dataset.Prepare(dataset.YelpLike(0.5, 1)).DAG
	for _, dir := range []string{"forward", "reversed"} {
		b.Run(dir, func(b *testing.B) {
			g := dag
			if dir == "reversed" {
				g = g.Reverse()
			}
			var l *labeling.Labeling
			for i := 0; i < b.N; i++ {
				l = labeling.Build(g, labeling.Options{})
			}
			b.ReportMetric(float64(l.TotalLabels()), "intervals/op")
		})
	}
}

// BenchmarkGraphBuild times graph.Builder on the same preset's edges in
// shuffled order: AddEdge for each, then Build's ordering, dedup and CSR
// fill — what every generated, loaded and condensed network pays.
func BenchmarkGraphBuild(b *testing.B) {
	src := dataset.YelpLike(0.5, 1).Graph
	var edges [][2]int
	src.Edges(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	rand.New(rand.NewSource(1)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := graph.NewBuilder(src.NumVertices())
		gb.Grow(len(edges))
		for _, e := range edges {
			gb.AddEdge(e[0], e[1])
		}
		if g := gb.Build(); g.NumEdges() != len(edges) {
			b.Fatalf("built %d edges, want %d", g.NumEdges(), len(edges))
		}
	}
	b.ReportMetric(float64(len(edges)), "edges/op")
}

// BenchmarkTilesNew times 3DReach's tile build alone on the network
// churn builds, GowallaLike(2, 1), whose 54,400 venues make it
// venue-heavy: the entries from the network and the rank-keyed
// labeling, then tiles.New's sorts and columns.
func BenchmarkTilesNew(b *testing.B) {
	prep := dataset.Prepare(dataset.GowallaLike(2, 1))
	l := labeling.Build(prep.DAG, labeling.Options{Spatial: prep.HasSpatial})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = core.NewThreeDReachWithLabeling(prep, l, core.BuildOptions{})
	}
}

// BenchmarkBuildDynamic times incr.New, one worker, over the prepared
// GowallaLike(2, 1): what churn's setup pays after generation and
// Prepare.
func BenchmarkBuildDynamic(b *testing.B) {
	prep := dataset.Prepare(dataset.GowallaLike(2, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = incr.New(prep, incr.Options{})
	}
}

// BenchmarkThreeDReachRev times 3DReach-Rev, one worker, on the
// benchmark pools' two presets at scale 2. build is the reversed
// labeling and the segment index, and reports the engine's MemoryBytes;
// each query sub-benchmark cycles through 4,096 of lib-query's queries
// of one region share (a user with an out-edge, a square of that share
// of the space placed uniformly) and reports the share answered true.
func BenchmarkThreeDReachRev(b *testing.B) {
	for _, ds := range []struct {
		name string
		net  *dataset.Network
	}{{"gowalla-like", dataset.GowallaLike(2, 1)}, {"yelp-like", dataset.YelpLike(2, 1)}} {
		prep := dataset.Prepare(ds.net)
		opts := core.BuildOptions{Parallelism: 1}
		b.Run(ds.name+"/build", func(b *testing.B) {
			var e *core.ThreeDReachRev
			for i := 0; i < b.N; i++ {
				e = core.NewThreeDReachRev(prep, opts)
			}
			b.ReportMetric(float64(e.MemoryBytes()), "bytes")
		})
		e := core.NewThreeDReachRev(prep, opts)
		for _, share := range []float64{0.0005, 0.01, 0.05, 0.20} {
			vs, rs := poolQueries(ds.net, share, 4096)
			b.Run(fmt.Sprintf("%s/query-%g%%", ds.name, 100*share), func(b *testing.B) {
				positives := 0
				for i := 0; i < b.N; i++ {
					if e.RangeReach(vs[i%len(vs)], rs[i%len(vs)]) {
						positives++
					}
				}
				b.ReportMetric(float64(positives)/float64(b.N), "positive")
			})
		}
	}
}

// poolQueries draws n queries as the benchmark module's pools do, at one
// region share: the vertex uniform over users with an out-edge, the
// region a square of that share of the space placed uniformly inside it.
func poolQueries(net *dataset.Network, share float64, n int) ([]int, []geom.Rect) {
	rng := rand.New(rand.NewSource(1))
	var users []int
	for v := range net.NumVertices() {
		if !net.Spatial[v] && net.Graph.OutDegree(v) >= 1 {
			users = append(users, v)
		}
	}
	sp := net.Space()
	w, h := sp.Max.X-sp.Min.X, sp.Max.Y-sp.Min.Y
	side := math.Min(math.Sqrt(share*w*h), math.Min(w, h))
	vs, rs := make([]int, n), make([]geom.Rect, n)
	for i := range vs {
		x, y := sp.Min.X+rng.Float64()*(w-side), sp.Min.Y+rng.Float64()*(h-side)
		vs[i], rs[i] = users[rng.Intn(len(users))], geom.NewRect(x, y, x+side, y+side)
	}
	return vs, rs
}

// benchSink keeps the benchmarks' results alive.
var benchSink any

// BenchmarkChurnEpoch is one epoch of the repository benchmark's churn
// workload per iteration — 32 updates in its mix (46 % add_edge, 40 %
// del_edge of the oldest stream edge once 512 are live, 10 %
// move_venue, 2 % add_venue, 2 % add_user; one edge endpoint in four a
// user the stream added, which is what merges and peels) and then
// Snapshot — on GowallaLike(0.5, 1), so the flush and publish cost shows
// in ns/op, B/op and allocs/op without the ten-second harness.
func BenchmarkChurnEpoch(b *testing.B) {
	net := dataset.GowallaLike(0.5, 1)
	x := incr.New(dataset.Prepare(net), incr.Options{})
	rng := rand.New(rand.NewSource(1))
	var users, venues, added []int
	for v, spatial := range net.Spatial {
		if spatial {
			venues = append(venues, v)
		} else {
			users = append(users, v)
		}
	}
	user := func() int {
		if len(added) > 0 && rng.Intn(4) == 0 {
			return added[rng.Intn(len(added))]
		}
		return users[rng.Intn(len(users))]
	}
	space := net.Space()
	point := func() (float64, float64) {
		return space.Min.X + rng.Float64()*(space.Max.X-space.Min.X), space.Min.Y + rng.Float64()*(space.Max.Y-space.Min.Y)
	}
	live := map[[2]int]bool{}
	var fifo [][2]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for op := 0; op < 32; op++ {
			switch k := rng.Intn(100); {
			case k < 46 || (k < 86 && len(fifo) < 512):
				e := [2]int{user(), rng.Intn(x.NumVertices())}
				if rng.Intn(2) == 0 {
					e[1] = user()
				}
				if base := net.NumVertices(); e[0] == e[1] || live[e] || (e[0] < base && e[1] < base && net.Graph.HasEdge(e[0], e[1])) {
					continue
				}
				live[e] = true
				fifo = append(fifo, e)
				_ = x.AddEdge(e[0], e[1]) // in range by construction
			case k < 86:
				e := fifo[0]
				fifo = fifo[1:]
				delete(live, e)
				if err := x.DeleteEdge(e[0], e[1]); err != nil {
					b.Fatal(err)
				}
			case k < 96:
				px, py := point()
				if err := x.MoveVenue(venues[rng.Intn(len(venues))], px, py); err != nil {
					b.Fatal(err)
				}
			case k < 98:
				venues = append(venues, x.AddVenue(point()))
			default:
				added = append(added, x.AddUser())
			}
		}
		x.Snapshot()
	}
}
