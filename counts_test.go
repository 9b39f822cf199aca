package rangereach_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	rangereach "repro"
	"repro/internal/dataset"
	"repro/internal/httpjson"
	"repro/internal/incr"
	"repro/internal/server"
)

// -update-counts re-records testdata/counts.golden from the current
// code, the way -update-format re-records the format fixtures. A change
// that moves a row re-records it and says in CHANGES.md which rows
// moved and why.
var updateCounts = flag.Bool("update-counts", false, "re-record the work-count golden testdata/counts.golden")

const countsGolden = "testdata/counts.golden"

// TestWorkCounts holds the work counts that performance claims rest on
// to a golden file: every indexed method's summed query work over a
// fixed pool, the dynamic index's counters after a fixed update stream,
// rrserve's per-request allocations, 3DReach's mapped open (allocations
// and bytes) and query, the network ingest's Load and Prepare, and the
// dynamic index's construction. A work row (work.*) is exact and must
// match. Every other row measures allocation and is an average, so the
// golden stores it as a ceiling and the test fails above it; allocation
// rows skip under -race, whose instrumentation allocates.
func TestWorkCounts(t *testing.T) {
	if raceEnabled && *updateCounts {
		t.Fatal("-update-counts needs a build without -race")
	}
	got := methodWorkRows(t)
	for name, v := range incrWorkRows(t) {
		got[name] = v
	}
	if !raceEnabled {
		for _, rows := range []map[string]float64{rrserveAllocRows(t), threeDReachAllocRows(t), ingestAllocRows(t), incrAllocRows(t)} {
			for name, v := range rows {
				got[name] = v
			}
		}
	}

	if *updateCounts {
		data, err := json.MarshalIndent(got, "", "  ") // a map marshals with sorted keys
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d rows", countsGolden, len(got))
	}
	data, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]float64
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("%s: %v", countsGolden, err)
	}
	for name, v := range got {
		g, ok := golden[name]
		switch {
		case !ok:
			t.Errorf("%s: %v, not in %s (re-record with -update-counts)", name, v, countsGolden)
		case isAllocRow(name) && v > g:
			t.Errorf("%s: %v, above its ceiling %v", name, v, g)
		case !isAllocRow(name) && v != g:
			t.Errorf("%s: %v, want exactly %v", name, v, g)
		}
	}
	for name := range golden {
		if _, ok := got[name]; !ok && !(raceEnabled && isAllocRow(name)) {
			t.Errorf("%s: in %s but no longer measured", name, countsGolden)
		}
	}
}

// isAllocRow reports whether a row measures allocation, a count or
// bytes: every row outside work.* does.
func isAllocRow(name string) bool { return !strings.HasPrefix(name, "work.") }

// allocatedBytesPerRun is testing.AllocsPerRun for bytes: the average
// heap bytes one call of f allocates, after a warm-up call, on one
// thread with the collector off.
func allocatedBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.TotalAlloc - before.TotalAlloc) / uint64(runs))
}

// workRegionShares are the query-region areas, as a share of the
// space, of the benchmark's query pool, drawn in equal parts.
var workRegionShares = [...]float64{0.0005, 0.01, 0.05, 0.20}

// workPool draws n distinct queries the way the benchmark's pool does:
// the vertex uniform over users with an out-edge, the region a square
// of one of workRegionShares placed uniformly inside the space.
func workPool(net *rangereach.Network, n int, seed int64) []rangereach.Query {
	rng := rand.New(rand.NewSource(seed))
	var users []int
	for v := 0; v < net.NumVertices(); v++ {
		if !net.IsSpatial(v) && net.OutDegree(v) >= 1 {
			users = append(users, v)
		}
	}
	sp := net.Space()
	w, h := sp.MaxX-sp.MinX, sp.MaxY-sp.MinY
	qs := make([]rangereach.Query, 0, n)
	seen := make(map[rangereach.Query]bool, n)
	for len(qs) < n {
		side := math.Min(math.Sqrt(workRegionShares[len(qs)%len(workRegionShares)]*w*h), math.Min(w, h))
		x := sp.MinX + rng.Float64()*(w-side)
		y := sp.MinY + rng.Float64()*(h-side)
		q := rangereach.Query{Vertex: users[rng.Intn(len(users))], Region: rangereach.NewRect(x, y, x+side, y+side)}
		if !seen[q] {
			seen[q] = true
			qs = append(qs, q)
		}
	}
	return qs
}

// methodWorkRows builds every method of Methods and MethodAuto over a
// gowalla-like and a yelp-like network, and the gowalla-like one with
// user points (userPointsNet), and explains a fixed pool on each. Per method it records the pool's sum of every
// nonzero QueryStats counter, its positive count and Stats().Bytes, as
// "work.<network>.<method>.<counter>". Every row is exact: the pool,
// the index and the work each query does are fixed by the seed.
func methodWorkRows(t *testing.T) map[string]float64 {
	t.Helper()
	methods := append(slices.Clone(rangereach.Methods), rangereach.MethodAuto)
	names := rangereach.MethodNames()
	rows := make(map[string]float64)
	for _, net := range []*rangereach.Network{rangereach.GowallaLike(0.05, 1), rangereach.YelpLike(0.05, 1), userPointsNet(t)} {
		pool := workPool(net, 200, 1)
		for _, m := range methods {
			idx, err := net.Build(m)
			if err != nil {
				t.Fatalf("%s %v: %v", net.Name(), m, err)
			}
			prefix := "work." + net.Name() + "." + names[m] + "."
			var sum rangereach.QueryStats
			positives := 0
			for _, q := range pool {
				ok, qs := idx.Explain(q.Vertex, q.Region)
				if ok {
					positives++
				}
				sum.Labels += qs.Labels
				sum.IndexNodes += qs.IndexNodes
				sum.IndexLeaves += qs.IndexLeaves
				sum.IndexEntries += qs.IndexEntries
				sum.OverlayEntries += qs.OverlayEntries
				sum.Candidates += qs.Candidates
				sum.ReachProbes += qs.ReachProbes
				sum.GraphVisited += qs.GraphVisited
				sum.Enumerated += qs.Enumerated
				sum.Members += qs.Members
			}
			for counter, v := range map[string]int64{
				"labels": sum.Labels, "index_nodes": sum.IndexNodes, "index_leaves": sum.IndexLeaves,
				"index_entries": sum.IndexEntries, "overlay_entries": sum.OverlayEntries,
				"candidates": sum.Candidates, "reach_probes": sum.ReachProbes,
				"graph_visited": sum.GraphVisited, "enumerated": sum.Enumerated, "members": sum.Members,
			} {
				if v != 0 {
					rows[prefix+counter] = float64(v)
				}
			}
			rows[prefix+"positives"] = float64(positives)
			rows[prefix+"bytes"] = float64(idx.Stats().Bytes)
		}
	}
	return rows
}

// incrWorkRows runs a fixed update stream over GowallaLike(0.05, 1)
// through a DynamicIndex, with the churn benchmark's op mix — 46 %
// add_edge, 40 % del_edge of the oldest stream edge once 256 are live,
// 10 % move_venue, 2 % add_venue, 2 % add_user — and a Snapshot every
// 32 ops, as rrserve's updater publishes. It records every UpdateStats
// counter and MemoryBytes at the stream's end as work.incr.<counter>:
// the stream and the work the index does for it are fixed by the seed.
func incrWorkRows(t *testing.T) map[string]float64 {
	t.Helper()
	const ops, epoch, keep = 2048, 32, 256
	base := dataset.GowallaLike(0.05, 1)
	net := rangereach.GowallaLike(0.05, 1)
	dyn := net.BuildDynamic()
	rng := rand.New(rand.NewSource(1))
	n := base.NumVertices()
	var users, venues []int
	for v := 0; v < n; v++ {
		if base.Spatial[v] {
			venues = append(venues, v)
		} else {
			users = append(users, v)
		}
	}
	baseUsers := len(users)
	// user draws an edge endpoint, one time in four a user the stream
	// added: edges at those close and break cycles.
	user := func() int {
		if added := len(users) - baseUsers; added > 0 && rng.Intn(4) == 0 {
			return users[baseUsers+rng.Intn(added)]
		}
		return users[rng.Intn(baseUsers)]
	}
	sp := net.Space()
	point := func() (float64, float64) {
		return sp.MinX + rng.Float64()*(sp.MaxX-sp.MinX), sp.MinY + rng.Float64()*(sp.MaxY-sp.MinY)
	}
	live := map[[2]int]bool{}
	var fifo [][2]int // the live stream edges, oldest first
	for i := 0; i < ops; i++ {
		var err error
		switch k := rng.Intn(100); {
		case k < 46 || (k < 86 && len(fifo) < keep):
			var e [2]int
			for {
				e = [2]int{user(), rng.Intn(n)}
				if rng.Intn(2) == 0 {
					e[1] = user()
				}
				inBase := e[0] < base.NumVertices() && e[1] < base.NumVertices() && base.Graph.HasEdge(e[0], e[1])
				if e[0] != e[1] && !live[e] && !inBase {
					break
				}
			}
			live[e] = true
			fifo = append(fifo, e)
			err = dyn.AddEdge(e[0], e[1])
		case k < 86:
			e := fifo[0]
			fifo = fifo[1:]
			delete(live, e)
			err = dyn.DeleteEdge(e[0], e[1])
		case k < 96:
			x, y := point()
			err = dyn.MoveVenue(venues[rng.Intn(len(venues))], x, y)
		case k < 98:
			venues = append(venues, dyn.AddVenue(point()))
			n++
		default:
			users = append(users, dyn.AddUser())
			n++
		}
		if err != nil {
			t.Fatalf("incr stream op %d: %v", i, err)
		}
		if (i+1)%epoch == 0 {
			dyn.Snapshot()
		}
	}
	st := dyn.UpdateStats()
	rows := make(map[string]float64)
	for counter, v := range map[string]int{
		"merges": st.Merges, "splits": st.Splits, "split_checks": st.SplitChecks,
		"cone_relabels": st.ConeRelabels, "relabeled_comps": st.RelabeledComps,
		"full_rebuilds": st.FullRebuilds, "folds": st.Folds,
		"live_comps": st.LiveComps, "dead_comps": st.DeadComps,
		"overlay_len": st.OverlayLen, "stale_len": st.StaleLen,
		"max_label_intervals": st.MaxLabelIntervals,
	} {
		rows["work.incr."+counter] = float64(v)
	}
	rows["work.incr.memory_bytes"] = float64(dyn.MemoryBytes())
	return rows
}

// userPointsNet is GowallaLike(0.05, 1) through dataset.WithUserPoints
// at share 0.1 (seed 1), named gowalla-like-u10: components of users
// hold points of their own, so 3DReach replicates member points,
// SocReach tests several members per component and SpaReach meets
// multi-point components. The pool draws its query vertices from the
// users without a point.
func userPointsNet(t *testing.T) *rangereach.Network {
	t.Helper()
	un := dataset.WithUserPoints(dataset.GowallaLike(0.05, 1), 0.1, 1)
	un.Name = "gowalla-like-u10"
	var buf bytes.Buffer
	if err := dataset.Save(&buf, un); err != nil {
		t.Fatal(err)
	}
	net, err := rangereach.ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// rrserveAllocRows measures allocations per request through rrserve's
// Handler().ServeHTTP with an httptest request and recorder, which
// alone cost 11: a /v1/query miss with the cache off, a /v1/query hit,
// and a /v1/batch of 64 queries. AllocsPerRun runs at GOMAXPROCS 1, so
// the batch takes the sequential path whatever the host's CPU count.
func rrserveAllocRows(t *testing.T) map[string]float64 {
	t.Helper()
	net := rangereach.GowallaLike(0.02, 1)
	idx, err := net.Build(rangereach.ThreeDReach)
	if err != nil {
		t.Fatal(err)
	}
	space := net.Space()
	region := [4]float64{space.MinX, space.MinY, space.MaxX, space.MaxY}
	query, err := json.Marshal(httpjson.QueryRequest{Vertex: 1, Region: region})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := httpjson.BatchRequest{Queries: make([]httpjson.QueryRequest, 64)}
	for i := range batch.Queries {
		x, y := space.MinX+rng.Float64()*(space.MaxX-space.MinX), space.MinY+rng.Float64()*(space.MaxY-space.MinY)
		batch.Queries[i] = httpjson.QueryRequest{Vertex: rng.Intn(net.NumVertices()), Region: [4]float64{x, y, x + 5, y + 5}}
	}
	batchBody, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

	newServer := func(cache int) http.Handler {
		srv, err := server.New(server.Config{Index: idx, CacheEntries: cache})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv.Handler()
	}
	cold, warm := newServer(-1), newServer(0)
	rows := make(map[string]float64)
	for _, row := range []struct {
		name, path string
		h          http.Handler
		body       []byte
		cached     bool
	}{
		{"rrserve.query_miss.allocs", "/v1/query", cold, query, false},
		{"rrserve.query_hit.allocs", "/v1/query", warm, query, true},
		{"rrserve.batch64.allocs", "/v1/batch", cold, batchBody, false},
	} {
		// The first call warms the cache; AllocsPerRun's own warm-up
		// run then fills the scratch pool.
		var last *httptest.ResponseRecorder
		serve := func() {
			last = httptest.NewRecorder()
			row.h.ServeHTTP(last, httptest.NewRequest(http.MethodPost, row.path, bytes.NewReader(row.body)))
		}
		serve()
		rows[row.name] = testing.AllocsPerRun(200, serve)
		if reply := last.Body.String(); last.Code != http.StatusOK || strings.Contains(reply, `"cached":true`) != row.cached {
			t.Fatalf("%s: got %d %s", row.name, last.Code, reply)
		}
	}
	return rows
}

// threeDReachAllocRows measures the library path under the served
// engine: Network.OpenMapped (and Close) of a saved 3DReach file, and
// one RangeReach on the mapped index over a region a fifth of the
// space on a side, which answers from the tiles.
func threeDReachAllocRows(t *testing.T) map[string]float64 {
	t.Helper()
	net := rangereach.GowallaLike(0.02, 1)
	built, err := net.Build(rangereach.ThreeDReach)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "3dreach.idx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	open := func() *rangereach.Index {
		idx, err := net.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	rows := map[string]float64{
		"3dreach.open_mapped.allocs": testing.AllocsPerRun(20, func() { _ = open().Close() }),
		"3dreach.open_mapped.bytes":  allocatedBytesPerRun(20, func() { _ = open().Close() }),
	}
	mapped := open()
	t.Cleanup(func() { _ = mapped.Close() })
	space := net.Space()
	w, h := (space.MaxX-space.MinX)/5, (space.MaxY-space.MinY)/5
	region := rangereach.NewRect(space.MinX+2*w, space.MinY+2*h, space.MinX+3*w, space.MinY+3*h)
	rows["3dreach.range_reach.allocs"] = testing.AllocsPerRun(200, func() { mapped.RangeReach(1, region) })
	return rows
}

// ingestAllocRows are the allocations of the network ingest that every
// process runs before it builds or opens an index: dataset.Load of the
// text Save writes for GowallaLike(0.05, 1), and dataset.Prepare of the
// loaded network, counted and in bytes. Load reads Save's point and
// edge lines in place, so its count does not grow with them, and
// Prepare holds its members as columns, so its count does not grow with
// the components; its bytes hold no column per component beyond the
// condensation's and the member partition's.
func ingestAllocRows(t *testing.T) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.Save(&buf, dataset.GowallaLike(0.05, 1)); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	net, err := dataset.Load(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun reads a process-wide counter, and a collection set
	// off by the loads allocates on its own goroutines.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return map[string]float64{
		"dataset.load.allocs":    testing.AllocsPerRun(5, func() { _, _ = dataset.Load(bytes.NewReader(text)) }),
		"dataset.prepare.allocs": testing.AllocsPerRun(5, func() { dataset.Prepare(net) }),
		"dataset.prepare.bytes":  allocatedBytesPerRun(5, func() { dataset.Prepare(net) }),
	}
}

// incrAllocRows is the allocation count of incr.New over the prepared
// GowallaLike(0.05, 1), one worker. New starts from Prepare's CSR rows
// and condensation, so besides the labeling's per-component sets it
// allocates per column, not per vertex.
func incrAllocRows(t *testing.T) map[string]float64 {
	t.Helper()
	prep := dataset.Prepare(dataset.GowallaLike(0.05, 1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return map[string]float64{
		"incr.new.allocs": testing.AllocsPerRun(5, func() { incr.New(prep, incr.Options{}) }),
	}
}

// raceEnabled is true under -race (race_test.go).
var raceEnabled bool
