// Benchmarks regenerating the paper's evaluation artifacts (one bench
// per table and figure; see DESIGN.md §4 for the experiment index).
//
// Run all:      go test -bench=. -benchmem
// One artifact: go test -bench=BenchmarkFig7Methods -benchmem
//
// The benchmarks run at a reduced dataset scale so `go test -bench=.`
// stays laptop-friendly; cmd/rrbench runs the same experiments at any
// scale and prints paper-style tables.
package rangereach_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/labeling"
	"repro/internal/workload"
)

// benchScale keeps `go test -bench=.` in the seconds range per bench.
const benchScale = 0.25

var (
	benchOnce  sync.Once
	benchNets  []*dataset.Network
	benchPreps []*dataset.Prepared
	benchGens  []*workload.Generator

	benchEngineMu sync.Mutex
	benchEngines  = map[string]core.BuildResult{}
)

func benchSetup() {
	benchOnce.Do(func() {
		benchNets = dataset.Presets(benchScale, 1)
		for _, net := range benchNets {
			prep := dataset.Prepare(net)
			benchPreps = append(benchPreps, prep)
			benchGens = append(benchGens, workload.NewGenerator(net, 99))
		}
	})
}

func benchEngine(b *testing.B, ds int, m core.Method, p dataset.SCCPolicy) core.Engine {
	b.Helper()
	benchEngineMu.Lock()
	defer benchEngineMu.Unlock()
	key := benchNets[ds].Name + "/" + m.String() + "/" + p.String()
	if res, ok := benchEngines[key]; ok {
		return res.Engine
	}
	res, err := core.BuildMethod(benchPreps[ds], m, core.BuildOptions{Policy: p})
	if err != nil {
		b.Fatal(err)
	}
	benchEngines[key] = res
	return res.Engine
}

func runQueries(b *testing.B, e core.Engine, qs []workload.Query) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		e.RangeReach(q.Vertex, q.Region)
	}
}

// BenchmarkTable3Stats regenerates Table 3: the structural statistics of
// the four datasets (SCC computation dominates).
func BenchmarkTable3Stats(b *testing.B) {
	benchSetup()
	for ds, net := range benchNets {
		b.Run(net.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := benchNets[ds].ComputeStats()
				if st.Vertices == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// BenchmarkTable4IndexSize regenerates Table 4: it builds each index and
// reports its footprint as the index-bytes metric.
func BenchmarkTable4IndexSize(b *testing.B) {
	benchSetup()
	for ds, net := range benchNets {
		for _, m := range core.AllMethods {
			b.Run(net.Name+"/"+m.String(), func(b *testing.B) {
				var bytes int64
				for i := 0; i < b.N; i++ {
					res, err := core.BuildMethod(benchPreps[ds], m, core.BuildOptions{})
					if err != nil {
						b.Fatal(err)
					}
					bytes = res.Bytes
				}
				b.ReportMetric(float64(bytes), "index-bytes")
			})
		}
	}
}

// BenchmarkTable5IndexBuild regenerates Table 5: per-method index
// construction time (the benchmark time itself is the artifact).
func BenchmarkTable5IndexBuild(b *testing.B) {
	benchSetup()
	for ds, net := range benchNets {
		for _, m := range core.AllMethods {
			b.Run(net.Name+"/"+m.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.BuildMethod(benchPreps[ds], m, core.BuildOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

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

// BenchmarkTable6Labels regenerates Table 6: interval-labeling
// construction with the uncompressed and compressed label counts as
// metrics, for the forward and reversed schemes.
func BenchmarkTable6Labels(b *testing.B) {
	benchSetup()
	for ds, net := range benchNets {
		for _, dir := range []string{"forward", "reversed"} {
			b.Run(net.Name+"/"+dir, func(b *testing.B) {
				g := benchPreps[ds].DAG
				if dir == "reversed" {
					g = g.Reverse()
				}
				var l *labeling.Labeling
				for i := 0; i < b.N; i++ {
					l = labeling.Build(g, labeling.Options{})
				}
				b.ReportMetric(float64(l.UncompressedCount), "labels-uncompressed")
				b.ReportMetric(float64(l.CompressedCount), "labels-compressed")
			})
		}
	}
}

// BenchmarkFig5MBRPolicy regenerates Figure 5: SpaReach-INT queries
// under the Replicate (non-MBR) vs MBR SCC policies at the default
// workload parameters.
func BenchmarkFig5MBRPolicy(b *testing.B) {
	benchSetup()
	for ds, net := range benchNets {
		qs := benchGens[ds].Batch(256, workload.DefaultExtent, workload.DefaultDegreeBucket)
		for _, p := range []dataset.SCCPolicy{dataset.Replicate, dataset.MBR} {
			b.Run(net.Name+"/"+p.String(), func(b *testing.B) {
				runQueries(b, benchEngine(b, ds, core.MethodSpaReachINT, p), qs)
			})
		}
	}
}

// BenchmarkFig6SpaReach regenerates Figure 6: SpaReach-BFL vs
// SpaReach-INT across the extent axis.
func BenchmarkFig6SpaReach(b *testing.B) {
	benchSetup()
	for ds, net := range benchNets {
		for _, extent := range []float64{1, workload.DefaultExtent, 20} {
			qs := benchGens[ds].Batch(256, extent, workload.DefaultDegreeBucket)
			for _, m := range []core.Method{core.MethodSpaReachBFL, core.MethodSpaReachINT} {
				b.Run(net.Name+"/"+m.String()+"/extent-"+pct(extent), func(b *testing.B) {
					runQueries(b, benchEngine(b, ds, m, dataset.Replicate), qs)
				})
			}
		}
	}
}

// BenchmarkFig7Methods regenerates Figure 7: the main method comparison
// across the extent axis (rrbench -exp fig7 covers the degree and
// selectivity axes at full resolution).
func BenchmarkFig7Methods(b *testing.B) {
	benchSetup()
	methods := []core.Method{
		core.MethodSpaReachBFL, core.MethodGeoReach, core.MethodSocReach,
		core.MethodThreeDReach, core.MethodThreeDReachRev,
	}
	for ds, net := range benchNets {
		for _, extent := range []float64{1, workload.DefaultExtent, 20} {
			qs := benchGens[ds].Batch(256, extent, workload.DefaultDegreeBucket)
			for _, m := range methods {
				b.Run(net.Name+"/"+m.String()+"/extent-"+pct(extent), func(b *testing.B) {
					runQueries(b, benchEngine(b, ds, m, dataset.Replicate), qs)
				})
			}
		}
	}
}

// BenchmarkFig7Selectivity covers Figure 7's selectivity axis for the
// two ends of the range, where the paper's crossover behaviour shows.
func BenchmarkFig7Selectivity(b *testing.B) {
	benchSetup()
	methods := []core.Method{
		core.MethodSpaReachBFL, core.MethodSocReach, core.MethodThreeDReach,
	}
	for ds, net := range benchNets {
		for _, sel := range []float64{0.001, 1} {
			qs := benchGens[ds].SelectivityBatch(128, sel, workload.DefaultDegreeBucket)
			for _, m := range methods {
				b.Run(net.Name+"/"+m.String()+"/sel-"+pct(sel), func(b *testing.B) {
					runQueries(b, benchEngine(b, ds, m, dataset.Replicate), qs)
				})
			}
		}
	}
}

// BenchmarkDynamicUpdates measures the incremental engine's update
// throughput (paper §8 future work): alternating edge insertions,
// deletions and queries on a changing network.
func BenchmarkDynamicUpdates(b *testing.B) {
	benchSetup()
	ds := 2 // weeplaces-like, the smallest preset
	for _, op := range []string{"add-edge", "del-edge", "add-venue", "query"} {
		b.Run(benchNets[ds].Name+"/"+op, func(b *testing.B) {
			e := incr.New(benchPreps[ds], incr.Options{})
			qs := benchGens[ds].Batch(256, workload.DefaultExtent, workload.DefaultDegreeBucket)
			n := e.NumVertices()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch op {
				case "add-edge":
					_ = e.AddEdge(i%n, (i*7+1)%n)
				case "del-edge":
					// Insert-then-delete so every iteration has an edge
					// to remove.
					_ = e.AddEdge(i%n, (i*11+3)%n)
					_ = e.DeleteEdge(i%n, (i*11+3)%n)
				case "add-venue":
					e.AddVenue(float64(i%100), float64((i*13)%100))
				default:
					q := qs[i%len(qs)]
					e.RangeReach(q.Vertex, q.Region)
				}
			}
		})
	}
}

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

// BenchmarkBatchParallel measures batch-query scaling across goroutines
// on the fastest engine.
func BenchmarkBatchParallel(b *testing.B) {
	benchSetup()
	ds := 1 // gowalla-like
	e := benchEngine(b, ds, core.MethodThreeDReach, dataset.Replicate)
	qs := benchGens[ds].Batch(512, workload.DefaultExtent, workload.DefaultDegreeBucket)
	b.Run("sequential", func(b *testing.B) {
		runQueries(b, e, qs)
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q := qs[i%len(qs)]
				e.RangeReach(q.Vertex, q.Region)
				i++
			}
		})
	})
}

func pct(v float64) string {
	switch {
	case v >= 1:
		return itoa(int(v))
	case v == 0.001:
		return "0.001"
	case v == 0.01:
		return "0.01"
	case v == 0.1:
		return "0.1"
	default:
		return "x"
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
