package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	rangereach "repro"
	"repro/internal/httpjson"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
)

// postTracedQuery sends /v1/query with a client traceparent and
// returns the recorder plus decoded response.
func postTracedQuery(t *testing.T, h http.Handler, vertex int, region [4]float64, traceparent string) (*httptest.ResponseRecorder, queryResponse) {
	t.Helper()
	body, err := json.Marshal(queryRequest{Vertex: vertex, Region: region})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	if traceparent != "" {
		req.Header.Set(trace.TraceparentHeader, traceparent)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp queryResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response %q: %v", rec.Body.String(), err)
		}
	}
	return rec, resp
}

// getTrace fetches /v1/trace/{id}, retrying briefly because early-exit
// traces finish asynchronously after the response is written.
func getTrace(t *testing.T, h http.Handler, id string) *trace.ClusterTrace {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		req := httptest.NewRequest(http.MethodGet, "/v1/trace/"+id, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			var tr trace.ClusterTrace
			if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
				t.Fatalf("bad trace body %q: %v", rec.Body.String(), err)
			}
			return &tr
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s not retrievable: %d %s", id, rec.Code, rec.Body.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func spansNamed(tr *trace.ClusterTrace, name string) []trace.ClusterSpan {
	var out []trace.ClusterSpan
	for _, sp := range tr.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestTracePropagationAndStitching: a client traceparent forces
// collection, the router propagates the same trace id (with a fresh
// span id) to every shard, and the stitched trace holds the router's
// placement and fanout spans plus one shard_call span per shard
// carrying the shard's own stats.
func TestTracePropagationAndStitching(t *testing.T) {
	m := testMap([4]float64{0, 0, 5, 10}, [4]float64{5, 0, 10, 10})
	rt, install := testCluster(t, m, Config{})

	var mu sync.Mutex
	seen := make(map[int]string) // shard -> traceparent received
	for sid := 0; sid < 2; sid++ {
		sid := sid
		install(sid, func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[sid] = r.Header.Get(trace.TraceparentHeader)
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"reachable":false,"stats":{"method":"stub","labels":%d}}`, 10+sid)
		})
	}

	clientTID, clientSID := trace.NewTraceID(), trace.NewSpanID()
	rec, resp := postTracedQuery(t, rt.Handler(), 1, wholeSpace, trace.FormatTraceparent(clientTID, clientSID))
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	if resp.TraceID != clientTID {
		t.Fatalf("response trace id %q, want the client's %q", resp.TraceID, clientTID)
	}

	// Both shards saw the same trace id under fresh span ids.
	mu.Lock()
	defer mu.Unlock()
	for sid := 0; sid < 2; sid++ {
		tid, spid, ok := trace.ParseTraceparent(seen[sid])
		if !ok {
			t.Fatalf("shard %d received invalid traceparent %q", sid, seen[sid])
		}
		if tid != clientTID {
			t.Errorf("shard %d saw trace id %q, want %q", sid, tid, clientTID)
		}
		if spid == clientSID {
			t.Errorf("shard %d saw the client's span id %q; want a fresh per-hop id", sid, spid)
		}
	}

	tr := getTrace(t, rt.Handler(), clientTID)
	if tr.Endpoint != "query" || tr.Status != http.StatusOK || tr.Reason != trace.ReasonForced {
		t.Fatalf("trace envelope: %+v", tr)
	}
	if got := spansNamed(tr, "placement"); len(got) != 1 || got[0].Tier != trace.TierRouter || got[0].Attrs["shards"] != "2" {
		t.Fatalf("placement span: %+v", got)
	}
	if got := spansNamed(tr, "fanout"); len(got) != 1 || got[0].Attrs["early_exit"] != "false" {
		t.Fatalf("fanout span: %+v", got)
	}
	calls := spansNamed(tr, "shard_call")
	if len(calls) != 2 {
		t.Fatalf("want 2 shard_call spans, got %+v", calls)
	}
	for _, sp := range calls {
		if sp.Tier != trace.TierShard || sp.Err != "" || sp.Attrs["backend"] == "" {
			t.Fatalf("shard_call span: %+v", sp)
		}
		var st rangereach.QueryStats
		if err := json.Unmarshal(sp.Stats, &st); err != nil {
			t.Fatalf("shard %d stats %q: %v", sp.Shard, sp.Stats, err)
		}
		if st.Method != "stub" || st.Labels != int64(10+sp.Shard) {
			t.Fatalf("shard %d stitched stats: %+v", sp.Shard, st)
		}
	}
}

// TestTraceBatchStitching: a traced /v1/batch is stitched like a query —
// placement, fan-out and one shard_call per shard it sends a subset to.
func TestTraceBatchStitching(t *testing.T) {
	m := testMap([4]float64{0, 0, 5, 10}, [4]float64{5, 0, 10, 10})
	rt, install := testCluster(t, m, Config{})
	install(0, answerBatch(false))
	install(1, answerBatch(false))
	body, err := json.Marshal(batchRequest{Queries: []queryRequest{{Vertex: 1, Region: wholeSpace}}})
	if err != nil {
		t.Fatal(err)
	}
	tid := trace.NewTraceID()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	req.Header.Set(trace.TraceparentHeader, trace.FormatTraceparent(tid, trace.NewSpanID()))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	tr := getTrace(t, rt.Handler(), tid)
	if tr.Endpoint != "batch" {
		t.Fatalf("trace envelope: %+v", tr)
	}
	for name, want := range map[string]int{"placement": 1, "fanout": 1, "shard_call": 2} {
		if got := spansNamed(tr, name); len(got) != want {
			t.Errorf("%d %s spans, want %d: %+v", len(got), name, want, got)
		}
	}
}

// TestTraceEarlyExitStitchesStragglers: a positive early exit cancels
// the remaining shard calls, and the trace — finished asynchronously —
// still records the canceled calls as canceled spans.
func TestTraceEarlyExitStitchesStragglers(t *testing.T) {
	m := testMap([4]float64{0, 0, 5, 10}, [4]float64{5, 0, 10, 10})
	rt, install := testCluster(t, m, Config{})
	install(0, answer(true))
	release := make(chan struct{}) // holds shard 1 until the trace is read
	defer close(release)
	install(1, func(w http.ResponseWriter, r *http.Request) {
		<-release
	})

	tid := trace.NewTraceID()
	rec, resp := postTracedQuery(t, rt.Handler(), 1, wholeSpace, trace.FormatTraceparent(tid, trace.NewSpanID()))
	if rec.Code != http.StatusOK || !resp.Reachable {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	tr := getTrace(t, rt.Handler(), tid)
	calls := spansNamed(tr, "shard_call")
	if len(calls) != 2 {
		t.Fatalf("want both shard calls in the trace, got %+v", calls)
	}
	canceled := 0
	for _, sp := range calls {
		if sp.Err == "canceled" {
			canceled++
		}
	}
	if canceled != 1 {
		t.Fatalf("want exactly one canceled shard_call, got %+v", calls)
	}
	if got := spansNamed(tr, "fanout"); len(got) != 1 || got[0].Attrs["early_exit"] != "true" {
		t.Fatalf("fanout span: %+v", got)
	}
}

// TestTraceTailSampling: in ambient mode error traces are always kept
// while healthy fast ones obey the 1-in-N tick; with tracing off, only
// client-forced traces exist at all.
func TestTraceTailSampling(t *testing.T) {
	m := testMap([4]float64{0, 0, 10, 10})
	rt, install := testCluster(t, m, Config{TraceSample: 1 << 30, TraceSlow: time.Hour})
	install(0, answer(false))

	// Healthy and fast: collected but not retained (N is huge).
	_, resp := postTracedQuery(t, rt.Handler(), 1, wholeSpace, "")
	if resp.TraceID == "" {
		t.Fatal("ambient mode returned no trace id")
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/trace/"+resp.TraceID, nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("healthy fast trace retained: %d", rec.Code)
	}

	// Errored: always retained.
	install(0, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	rec2, _ := postTracedQuery(t, rt.Handler(), 1, wholeSpace, "")
	if rec2.Code != http.StatusBadGateway {
		t.Fatalf("want 502 from failed shard, got %d", rec2.Code)
	}
	var errResp struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(rec2.Body.Bytes(), &errResp)
	recent := rt.ring.Recent(1)
	if len(recent) != 1 || recent[0].Reason != trace.ReasonError || recent[0].Status != http.StatusBadGateway {
		t.Fatalf("error trace not retained: %+v (error %q)", recent, errResp.Error)
	}

	// Tracing off: ambient requests collect nothing, forced ones are kept.
	rtOff, installOff := testCluster(t, m, Config{})
	installOff(0, answer(false))
	_, respOff := postTracedQuery(t, rtOff.Handler(), 1, wholeSpace, "")
	if respOff.TraceID != "" {
		t.Fatalf("tracing off but response carries trace id %q", respOff.TraceID)
	}
	if rtOff.ring.Len() != 0 {
		t.Fatalf("tracing off but ring holds %d traces", rtOff.ring.Len())
	}
	tid := trace.NewTraceID()
	postTracedQuery(t, rtOff.Handler(), 1, wholeSpace, trace.FormatTraceparent(tid, trace.NewSpanID()))
	if tr := rtOff.ring.Get(tid); tr == nil || tr.Reason != trace.ReasonForced {
		t.Fatalf("forced trace with tracing off: %+v", tr)
	}
}

// TestTraceConcurrentScatterGather hammers traced queries (some early
// exits, so spans land from straggler goroutines) against concurrent
// /v1/trace and /v1/traces readers. The race detector is the judge.
func TestTraceConcurrentScatterGather(t *testing.T) {
	m := testMap([4]float64{0, 0, 5, 10}, [4]float64{5, 0, 10, 10})
	rt, install := testCluster(t, m, Config{TraceSample: 1})
	install(0, answer(true))
	install(1, answer(false))

	var wg sync.WaitGroup
	ids := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, resp := postTracedQuery(t, rt.Handler(), 1, wholeSpace, "")
				select {
				case ids <- resp.TraceID:
				default:
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				select {
				case id := <-ids:
					req := httptest.NewRequest(http.MethodGet, "/v1/trace/"+id, nil)
					rt.Handler().ServeHTTP(httptest.NewRecorder(), req)
				default:
				}
				req := httptest.NewRequest(http.MethodGet, "/v1/traces?n=8", nil)
				rt.Handler().ServeHTTP(httptest.NewRecorder(), req)
			}
		}()
	}
	wg.Wait()
}

// TestTraceParityWithShardExplain: the per-shard stats stitched into a
// cluster trace equal what the shard's own /v1/explain reports for the
// same query — same engine counters, same stage set.
func TestTraceParityWithShardExplain(t *testing.T) {
	net := rangereach.GenerateSynthetic(rangereach.SyntheticConfig{
		Name: "parity", Users: 200, Venues: 100,
		AvgFriends: 4, AvgCheckins: 3, Clusters: 4, Seed: 11,
	})
	// Two real rrserve shards over the same index, caches disabled so
	// every run recomputes deterministically.
	backends := make([]string, 2)
	for i := range backends {
		srv, err := server.New(server.Config{
			Index:        net.MustBuild(rangereach.ThreeDReach),
			CacheEntries: -1,
			ShardID:      fmt.Sprint(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		backends[i] = ts.URL
	}
	m := testMap([4]float64{0, 0, 5, 10}, [4]float64{5, 0, 10, 10})
	rt, err := New(Config{Map: m, Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	// Find a query both shards answer negatively, so no early exit
	// cancels a shard call and every span carries stats.
	explain := func(backend string, vertex int, region [4]float64) (bool, rangereach.QueryStats) {
		t.Helper()
		url := fmt.Sprintf("%s/v1/explain?vertex=%d&region=%g,%g,%g,%g",
			backend, vertex, region[0], region[1], region[2], region[3])
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var er struct {
			Reachable bool                  `json:"reachable"`
			Stats     rangereach.QueryStats `json:"stats"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return er.Reachable, er.Stats
	}
	vertex, region := -1, wholeSpace
	for v := 0; v < m.Vertices; v++ {
		if reachable, _ := explain(backends[0], v, region); !reachable {
			vertex = v
			break
		}
	}
	if vertex < 0 {
		t.Skip("no all-negative query vertex in the synthetic network")
	}

	tid := trace.NewTraceID()
	rec, resp := postTracedQuery(t, rt.Handler(), vertex, region, trace.FormatTraceparent(tid, trace.NewSpanID()))
	if rec.Code != http.StatusOK || resp.Reachable {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	tr := getTrace(t, rt.Handler(), tid)
	calls := spansNamed(tr, "shard_call")
	if len(calls) != 2 {
		t.Fatalf("want 2 shard_call spans, got %+v", calls)
	}

	normalize := func(st rangereach.QueryStats) rangereach.QueryStats {
		st.Duration = 0
		for i := range st.Stages {
			st.Stages[i].Duration = 0
		}
		return st
	}
	for _, sp := range calls {
		var stitched rangereach.QueryStats
		if err := json.Unmarshal(sp.Stats, &stitched); err != nil {
			t.Fatalf("shard %d stitched stats: %v", sp.Shard, err)
		}
		_, direct := explain(rt.BackendFor(sp.Shard), vertex, region)
		got, want := normalize(stitched), normalize(direct)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d: stitched stats %+v != explain stats %+v", sp.Shard, got, want)
		}
		if len(got.Stages) == 0 {
			t.Errorf("shard %d: stitched stats carry no stages", sp.Shard)
		}
	}
}

// TestClusterFederation: the router scrapes real shard registries into
// /v1/cluster, with per-shard quantiles recovered from the scraped
// histogram buckets.
func TestClusterFederation(t *testing.T) {
	m := testMap([4]float64{0, 0, 5, 10}, [4]float64{5, 0, 10, 10})
	rt, install := testCluster(t, m, Config{})

	// Each stub shard exposes a real registry exposition.
	for sid := 0; sid < 2; sid++ {
		sid := sid
		reg := metrics.NewRegistry()
		q := reg.Counter("rr_queries_total", "queries")
		q.Add(int64(100 * (sid + 1)))
		reg.GaugeFunc("rr_cache_hit_ratio", "ratio", func() float64 { return 0.5 })
		reg.Gauge("rr_inflight_requests", "inflight").Set(int64(sid))
		h := reg.Histogram("rr_query_seconds", "latency", nil)
		for i := 0; i < 100; i++ {
			h.Observe(0.001 * float64(sid+1))
		}
		install(sid, func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" {
				http.NotFound(w, r)
				return
			}
			_ = reg.WritePrometheus(w)
		})
	}

	cl := getCluster(t, rt)
	if len(cl.Shards) != 2 {
		t.Fatalf("cluster shards: %+v", cl.Shards)
	}
	for sid, row := range cl.Shards {
		if row.ScrapeError != "" || row.ScrapeAgeMillis < 0 {
			t.Fatalf("shard %d scrape: %+v", sid, row)
		}
		if row.Queries != int64(100*(sid+1)) || row.CacheHitRatio != 0.5 || row.Inflight != int64(sid) {
			t.Errorf("shard %d digested values: %+v", sid, row)
		}
		if row.P99Micros <= 0 {
			t.Errorf("shard %d p99 not recovered: %+v", sid, row)
		}
	}
	if cl.ClusterP99Micros <= 0 {
		t.Errorf("cluster p99 missing: %+v", cl)
	}

	// A dead shard's scrape failure is recorded, and /v1/cluster still
	// answers.
	install(0, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	rt.federateOnce()
	if s := rt.fed.snapshot()[0]; s.Err == "" {
		t.Fatal("scrape failure not recorded")
	}
}

// getCluster GETs the router's /v1/cluster and decodes it.
func getCluster(t *testing.T, rt *Router) clusterResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/cluster: %d %s", rec.Code, rec.Body.String())
	}
	var cl clusterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cl); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestClusterStaleGeneration: two dynamic shards at different
// generations — an edge is added on one shard directly, past the
// router — each show their own gen in /v1/cluster, and max_generation
// is the higher one.
func TestClusterStaleGeneration(t *testing.T) {
	net := e2eNetwork()
	c, _ := newDynamicE2ECluster(t, net, 2, shard.Spatial)
	to := 1
	for slices.Contains(net.Graph.Out(0), int32(to)) {
		to++
	}
	body := fmt.Sprintf(`{"op":"add_edge","from":0,"to":%d}`, to)
	resp, err := http.Post(c.router.BackendFor(1)+"/v1/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add_edge on shard 1: %s", resp.Status)
	}
	gens := make([]uint64, 2)
	for sid := range gens {
		var hz httpjson.ServerHealthz
		if err := httpjson.Fetch(http.DefaultClient, c.router.BackendFor(sid)+"/healthz", &hz); err != nil {
			t.Fatal(err)
		}
		gens[sid] = hz.Gen
	}
	if gens[1] <= gens[0] {
		t.Fatalf("shard generations %v: the edge did not move shard 1 ahead", gens)
	}
	cl := getCluster(t, c.router)
	for sid, row := range cl.Shards {
		if row.ScrapeError != "" || row.Gen != gens[sid] {
			t.Errorf("shard %d row %+v, want gen %d", sid, row, gens[sid])
		}
	}
	if cl.MaxGeneration != gens[1] {
		t.Errorf("max_generation %d, want shard 1's %d", cl.MaxGeneration, gens[1])
	}
}

// TestClusterScrapeConcurrentWithReaders: scrape cycles replace the
// cluster snapshot, and queries update shard health, while /v1/cluster
// and /metrics read them — the verdict is the race detector's.
func TestClusterScrapeConcurrentWithReaders(t *testing.T) {
	m := testMap([4]float64{0, 0, 5, 10}, [4]float64{5, 0, 10, 10})
	rt, install := testCluster(t, m, Config{})
	for sid := 0; sid < 2; sid++ {
		reg := metrics.NewRegistry()
		reg.Counter("rr_queries_total", "queries").Add(int64(sid + 1))
		install(sid, func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				_ = reg.WritePrometheus(w)
				return
			}
			answer(false)(w, r)
		})
	}
	// The readers run until the last scrape cycle is in, so they overlap
	// every write of it also when the goroutines share one CPU.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 50; i++ {
			rt.federateOnce()
		}
	}()
	for _, path := range []string{"/metrics", "/v1/cluster", "/v1/query"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, path, nil)
				if path == "/v1/query" {
					req = httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"vertex":1,"region":[0,0,10,10]}`))
				}
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: %d %s", path, rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTraceBuilderIDConcurrentWithSpans: traceID is read by shard-call
// goroutines mid-flight while others append spans under the builder
// mutex. The id must come from the builder's immutable copy, never
// through the mutex-guarded trace — run with -race to enforce it.
func TestTraceBuilderIDConcurrentWithSpans(t *testing.T) {
	tb := newTraceBuilder("0123456789abcdef0123456789abcdef", "query", true, time.Now())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := tb.traceID(); got != "0123456789abcdef0123456789abcdef" {
					t.Errorf("traceID = %q mid-flight", got)
					return
				}
				tb.span("shard_call", trace.TierShard, shard, time.Now(), "", nil, nil)
			}
		}(g)
	}
	wg.Wait()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if got := len(tb.tr.Spans); got != 4*200 {
		t.Fatalf("spans recorded = %d, want %d", got, 4*200)
	}
}
