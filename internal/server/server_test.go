package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rangereach "repro"
	"repro/internal/metrics"
)

// testNetwork generates a small synthetic network with a fixed seed.
func testNetwork(t *testing.T) *rangereach.Network {
	t.Helper()
	return rangereach.GenerateSynthetic(rangereach.SyntheticConfig{
		Name: "server-test", Users: 300, Venues: 150,
		AvgFriends: 4, AvgCheckins: 3, Clusters: 5, Seed: 7,
	})
}

func randRegion(rng *rand.Rand, space rangereach.Rect) [4]float64 {
	w := (space.MaxX - space.MinX) * (0.05 + 0.3*rng.Float64())
	h := (space.MaxY - space.MinY) * (0.05 + 0.3*rng.Float64())
	x := space.MinX + rng.Float64()*(space.MaxX-space.MinX-w)
	y := space.MinY + rng.Float64()*(space.MaxY-space.MinY-h)
	return [4]float64{x, y, x + w, y + h}
}

func postJSON(t *testing.T, client *http.Client, url string, body, out any) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v (body %q)", url, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

func TestStaticQueryBatchAndMetrics(t *testing.T) {
	net := testNetwork(t)
	idx, err := net.Build(rangereach.ThreeDReach)
	if err != nil {
		t.Fatal(err)
	}
	oracle := net.MustBuild(rangereach.Naive)

	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(1))
	space := net.Space()

	// Single queries match the naive oracle.
	var firstKey queryRequest
	for i := 0; i < 50; i++ {
		req := queryRequest{Vertex: rng.Intn(net.NumVertices()), Region: randRegion(rng, space)}
		if i == 0 {
			firstKey = req
		}
		var resp queryResponse
		status, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", req, &resp)
		if status != http.StatusOK {
			t.Fatalf("query status %d: %s", status, body)
		}
		want := oracle.RangeReach(req.Vertex, rangereach.NewRect(req.Region[0], req.Region[1], req.Region[2], req.Region[3]))
		if resp.Reachable != want {
			t.Fatalf("query %d: got %v, oracle %v", i, resp.Reachable, want)
		}
		if resp.Cached {
			t.Fatalf("query %d unexpectedly cached", i)
		}
	}

	// Asking the first query again hits the cache.
	var resp queryResponse
	if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", firstKey, &resp); status != http.StatusOK {
		t.Fatalf("repeat query status %d: %s", status, body)
	}
	if !resp.Cached {
		t.Error("repeated query not served from cache")
	}

	// Batch answers match the oracle element-wise.
	var breq batchRequest
	for i := 0; i < 200; i++ {
		breq.Queries = append(breq.Queries, queryRequest{
			Vertex: rng.Intn(net.NumVertices()), Region: randRegion(rng, space),
		})
	}
	var bresp batchResponse
	if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/batch", breq, &bresp); status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	if len(bresp.Results) != len(breq.Queries) {
		t.Fatalf("batch returned %d results, want %d", len(bresp.Results), len(breq.Queries))
	}
	for i, q := range breq.Queries {
		want := oracle.RangeReach(q.Vertex, rangereach.NewRect(q.Region[0], q.Region[1], q.Region[2], q.Region[3]))
		if bresp.Results[i] != want {
			t.Fatalf("batch result %d: got %v, oracle %v", i, bresp.Results[i], want)
		}
	}

	// Healthz reports static mode.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthzResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || health.Mode != "static" || health.Vertices != net.NumVertices() {
		t.Errorf("healthz = %+v", health)
	}

	// Metrics expose query counts, latency and cache hit rate.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"rr_queries_total 250", // 50 single misses + 200 batch; the cached repeat skips evaluation
		"rr_query_seconds_bucket",
		"rr_query_seconds_count",
		"rr_cache_hits_total 1",
		"rr_cache_misses_total 50",
		`rr_requests_total{endpoint="query"} 51`,
		`rr_requests_total{endpoint="batch"} 1`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q:\n%s", want, mbody)
		}
	}
}

func TestStaticUpdateRejected(t *testing.T) {
	net := testNetwork(t)
	srv, err := New(Config{Index: net.MustBuild(rangereach.SocReach)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update", updateRequest{Op: "add_user"}, nil)
	if status != http.StatusNotImplemented {
		t.Fatalf("static update: status %d, want 501 (%s)", status, body)
	}
}

func TestBadRequests(t *testing.T) {
	net := testNetwork(t)
	srv, err := New(Config{Index: net.MustBuild(rangereach.ThreeDReach)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		queryRequest{Vertex: net.NumVertices() + 5}, nil); status != http.StatusBadRequest {
		t.Errorf("out-of-range vertex: status %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", batchRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", status)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// dynOracle mirrors the evolving network: plain adjacency + points,
// answering RangeReach by BFS. Maintained serially by the test.
type dynOracle struct {
	adj    [][]int
	points map[int][2]float64
}

func newDynOracle(net *rangereach.Network, edges [][2]int) *dynOracle {
	o := &dynOracle{
		adj:    make([][]int, net.NumVertices()),
		points: make(map[int][2]float64),
	}
	for _, e := range edges {
		o.adj[e[0]] = append(o.adj[e[0]], e[1])
	}
	for v := 0; v < net.NumVertices(); v++ {
		if x, y, ok := net.PointOf(v); ok {
			o.points[v] = [2]float64{x, y}
		}
	}
	return o
}

func (o *dynOracle) addVertex() int {
	o.adj = append(o.adj, nil)
	return len(o.adj) - 1
}

func (o *dynOracle) hasEdge(u, v int) bool {
	for _, w := range o.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

func (o *dynOracle) delEdge(u, v int) {
	for i, w := range o.adj[u] {
		if w == v {
			o.adj[u] = append(o.adj[u][:i], o.adj[u][i+1:]...)
			return
		}
	}
}

func (o *dynOracle) rangeReach(v int, region [4]float64) bool {
	xmin, ymin, xmax, ymax := region[0], region[1], region[2], region[3]
	inside := func(u int) bool {
		p, ok := o.points[u]
		return ok && p[0] >= xmin && p[0] <= xmax && p[1] >= ymin && p[1] <= ymax
	}
	seen := make([]bool, len(o.adj))
	queue := []int{v}
	seen[v] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if inside(u) {
			return true
		}
		for _, w := range o.adj[u] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

// TestDynamicMixedTraffic drives interleaved /v1/query + /v1/update
// traffic against dynamic mode and asserts every answer matches the
// serially-maintained naive oracle.
func TestDynamicMixedTraffic(t *testing.T) {
	const nStart = 60
	rng := rand.New(rand.NewSource(42))

	// Acyclic base network: edges only low id -> high id, deduplicated
	// so the oracle's edge multiset matches the (dedup-on-build) graph.
	b := rangereach.NewNetworkBuilder(nStart).SetName("dyn-test")
	var edges [][2]int
	seenEdge := make(map[[2]int]bool)
	for i := 0; i < 2*nStart; i++ {
		u := rng.Intn(nStart - 1)
		v := u + 1 + rng.Intn(nStart-u-1)
		if seenEdge[[2]int{u, v}] {
			continue
		}
		seenEdge[[2]int{u, v}] = true
		b.AddEdge(u, v)
		edges = append(edges, [2]int{u, v})
	}
	for v := 0; v < nStart; v += 3 {
		b.SetPoint(v, rng.Float64()*100, rng.Float64()*100)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oracle := newDynOracle(net, edges)
	allEdges := append([][2]int(nil), edges...)
	var venues []int
	for v := 0; v < nStart; v += 3 {
		venues = append(venues, v)
	}

	// CheckPublish validates every published snapshot along the way; a
	// bug in the incremental patching fails the batch with 500 here.
	srv, err := New(Config{Dynamic: net.BuildDynamic(), CacheEntries: 256, CheckPublish: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	space := rangereach.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	nVertices := nStart
	for step := 0; step < 400; step++ {
		switch k := rng.Intn(10); {
		case k < 6: // query
			region := randRegion(rng, space)
			v := rng.Intn(nVertices)
			var resp queryResponse
			status, body := postJSON(t, ts.Client(), ts.URL+"/v1/query",
				queryRequest{Vertex: v, Region: region}, &resp)
			if status != http.StatusOK {
				t.Fatalf("step %d: query status %d: %s", step, status, body)
			}
			if want := oracle.rangeReach(v, region); resp.Reachable != want {
				t.Fatalf("step %d: RangeReach(%d, %v) = %v, oracle %v", step, v, region, resp.Reachable, want)
			}
		case k < 7: // add user
			var resp updateResponse
			status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update", updateRequest{Op: "add_user"}, &resp)
			if status != http.StatusOK {
				t.Fatalf("step %d: add_user status %d: %s", step, status, body)
			}
			if id := oracle.addVertex(); resp.ID == nil || id != *resp.ID {
				t.Fatalf("step %d: add_user id %v, oracle %d", step, resp.ID, id)
			}
			nVertices++
		case k < 8: // add venue
			x, y := rng.Float64()*100, rng.Float64()*100
			var resp updateResponse
			status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update",
				updateRequest{Op: "add_venue", X: x, Y: y}, &resp)
			if status != http.StatusOK {
				t.Fatalf("step %d: add_venue status %d: %s", step, status, body)
			}
			id := oracle.addVertex()
			if resp.ID == nil || id != *resp.ID {
				t.Fatalf("step %d: add_venue id %v, oracle %d", step, resp.ID, id)
			}
			oracle.points[id] = [2]float64{x, y}
			venues = append(venues, id)
			nVertices++
		case k < 9 && len(allEdges) > 0 && rng.Intn(3) == 0: // delete a known edge
			i := rng.Intn(len(allEdges))
			e := allEdges[i]
			allEdges[i] = allEdges[len(allEdges)-1]
			allEdges = allEdges[:len(allEdges)-1]
			status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update",
				updateRequest{Op: "del_edge", From: e[0], To: e[1]}, nil)
			if status != http.StatusOK {
				t.Fatalf("step %d: del_edge status %d: %s", step, status, body)
			}
			oracle.delEdge(e[0], e[1])
		case k < 9 && len(venues) > 0 && rng.Intn(3) == 1: // move a venue
			v := venues[rng.Intn(len(venues))]
			x, y := rng.Float64()*100, rng.Float64()*100
			status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update",
				updateRequest{Op: "move_venue", Vertex: v, X: x, Y: y}, nil)
			if status != http.StatusOK {
				t.Fatalf("step %d: move_venue status %d: %s", step, status, body)
			}
			oracle.points[v] = [2]float64{x, y}
		default: // add edge (any direction; cycle-closing edges merge)
			u, v := rng.Intn(nVertices), rng.Intn(nVertices)
			status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update",
				updateRequest{Op: "add_edge", From: u, To: v}, nil)
			if status != http.StatusOK {
				t.Fatalf("step %d: add_edge status %d: %s", step, status, body)
			}
			if u != v && !oracle.hasEdge(u, v) {
				oracle.adj[u] = append(oracle.adj[u], v)
				allEdges = append(allEdges, [2]int{u, v})
			}
		}
	}

	// The dynamic path records snapshot swaps.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "rr_snapshot_swaps_total") ||
		strings.Contains(string(mbody), "rr_snapshot_swaps_total 0\n") {
		t.Errorf("metrics missing snapshot swaps:\n%s", mbody)
	}
	// ... and the state of the index behind the published snapshot: the
	// stream added venues and never enough to fold them into the base.
	samples, err := metrics.ParseProm(bytes.NewReader(mbody))
	if err != nil {
		t.Fatal(err)
	}
	for name, atLeast := range map[string]float64{
		"rr_incr_overlay_entries":     1,
		"rr_incr_tombstones":          0,
		"rr_incr_live_components":     1,
		"rr_incr_max_label_intervals": 1,
	} {
		if v, ok := metrics.Value(samples, name, nil); !ok || v < atLeast {
			t.Errorf("%s = %v (present %v), want at least %v", name, v, ok, atLeast)
		}
	}
}

// TestDynamicConcurrentReadersDuringUpdates hammers /v1/query from many
// goroutines while another goroutine streams updates; run under -race
// this exercises the snapshot-swap publication. Afterwards, with
// updates quiesced, every answer must match the oracle's final state.
func TestDynamicConcurrentReadersDuringUpdates(t *testing.T) {
	const nStart = 40
	rng := rand.New(rand.NewSource(3))
	b := rangereach.NewNetworkBuilder(nStart)
	var edges [][2]int
	for i := 0; i < nStart; i++ {
		u := rng.Intn(nStart - 1)
		v := u + 1 + rng.Intn(nStart-u-1)
		b.AddEdge(u, v)
		edges = append(edges, [2]int{u, v})
	}
	for v := 0; v < nStart; v += 4 {
		b.SetPoint(v, rng.Float64()*100, rng.Float64()*100)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oracle := newDynOracle(net, edges)

	srv, err := New(Config{Dynamic: net.BuildDynamic(), CacheEntries: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	space := rangereach.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := queryRequest{Vertex: r.Intn(nStart), Region: randRegion(r, space)}
				status, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", req, &queryResponse{})
				if status != http.StatusOK {
					t.Errorf("concurrent query status %d: %s", status, body)
					return
				}
			}
		}(int64(100 + w))
	}

	// Writer: stream venue + edge updates, mirroring into the oracle
	// (the writer is the only goroutine touching the oracle until the
	// readers have stopped).
	urng := rand.New(rand.NewSource(9))
	nVertices := nStart
	for i := 0; i < 120; i++ {
		if urng.Intn(2) == 0 {
			x, y := urng.Float64()*100, urng.Float64()*100
			var resp updateResponse
			status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update",
				updateRequest{Op: "add_venue", X: x, Y: y}, &resp)
			if status != http.StatusOK {
				t.Fatalf("add_venue status %d: %s", status, body)
			}
			id := oracle.addVertex()
			oracle.points[id] = [2]float64{x, y}
			nVertices++
		} else {
			u, v := urng.Intn(nVertices), urng.Intn(nVertices)
			status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update",
				updateRequest{Op: "add_edge", From: u, To: v}, nil)
			if status != http.StatusOK {
				t.Fatalf("add_edge status %d: %s", status, body)
			}
			oracle.adj[u] = append(oracle.adj[u], v)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: answers now reflect the final state.
	frng := rand.New(rand.NewSource(77))
	for i := 0; i < 60; i++ {
		region := randRegion(frng, space)
		v := frng.Intn(nVertices)
		var resp queryResponse
		status, body := postJSON(t, ts.Client(), ts.URL+"/v1/query",
			queryRequest{Vertex: v, Region: region}, &resp)
		if status != http.StatusOK {
			t.Fatalf("final query status %d: %s", status, body)
		}
		if want := oracle.rangeReach(v, region); resp.Reachable != want {
			t.Fatalf("final RangeReach(%d, %v) = %v, oracle %v", v, region, resp.Reachable, want)
		}
	}
}

// TestUpdateTimeout exercises the context path on submit after close.
func TestUpdateAfterClose(t *testing.T) {
	net := testNetwork(t)
	srv, err := New(Config{Dynamic: net.BuildDynamic()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update", updateRequest{Op: "add_user"}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("update after close: status %d, want 503 (%s)", status, body)
	}
	if !strings.Contains(body, "closed") {
		t.Errorf("body %q does not mention closed", body)
	}
}

// TestCloseDrainsHandlers pins the server's side of an index's lifetime:
// Close waits for a handler that is still inside the index, and a
// request that arrives after Close is answered 503 without reaching it.
// The last part runs over a mapped index that is unmapped after Close,
// as rrserve and the cluster harness do: a query that reached the index
// would fault.
func TestCloseDrainsHandlers(t *testing.T) {
	net := testNetwork(t)
	path := filepath.Join(t.TempDir(), "drain.idx")
	if err := net.MustBuild(rangereach.ThreeDReach).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	idx, err := net.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}

	// A handler blocked inside the index holds Close until it returns.
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	h := srv.instrument(srv.mReqQuery, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		w.WriteHeader(http.StatusOK)
	})
	query := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, "/v1/query", nil))
		return rec
	}
	go query()
	<-entered
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still inside the index")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the handler did")
	}

	// After Close: 503, and the handler never runs.
	if rec := query(); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "closed") {
		t.Errorf("request after Close: status %d (%s), want 503", rec.Code, rec.Body)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("handler ran %d times, want only the request before Close", n)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	body := strings.NewReader(`{"vertex":0,"region":[0,0,100,100]}`)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", body))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("query on the unmapped index after Close: status %d (%s), want 503", rec.Code, rec.Body)
	}
}

// TestBatchConsistentSnapshot verifies a batch in dynamic mode is
// answered against one snapshot (gen echoes a single generation).
func TestBatchConsistentSnapshot(t *testing.T) {
	net := testNetwork(t)
	srv, err := New(Config{Dynamic: net.BuildDynamic()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var uresp updateResponse
	if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/update", updateRequest{Op: "add_user"}, &uresp); status != http.StatusOK {
		t.Fatalf("add_user status %d: %s", status, body)
	}
	var breq batchRequest
	for i := 0; i < 10; i++ {
		breq.Queries = append(breq.Queries, queryRequest{Vertex: i, Region: [4]float64{0, 0, 1, 1}})
	}
	var bresp batchResponse
	if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/batch", breq, &bresp); status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	if bresp.Gen != uresp.Gen {
		t.Errorf("batch gen %d, want %d (latest published)", bresp.Gen, uresp.Gen)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with neither index accepted")
	}
	net := testNetwork(t)
	if _, err := New(Config{Index: net.MustBuild(rangereach.Naive), Dynamic: net.BuildDynamic()}); err == nil {
		t.Error("New with both indexes accepted")
	}
}

func TestQueryTimeoutConfig(t *testing.T) {
	net := testNetwork(t)
	srv, err := New(Config{Index: net.MustBuild(rangereach.Naive), QueryTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var breq batchRequest
	for i := 0; i < 64; i++ {
		breq.Queries = append(breq.Queries, queryRequest{Vertex: i, Region: [4]float64{0, 0, 1, 1}})
	}
	status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", breq, nil)
	if status != http.StatusGatewayTimeout && status != http.StatusOK {
		t.Fatalf("batch under 1ns budget: status %d, want 504 (or rare 200)", status)
	}
}
