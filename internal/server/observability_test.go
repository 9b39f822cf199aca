package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	rangereach "repro"
	"repro/internal/trace"
)

func getJSON(t *testing.T, client *http.Client, url string, out any) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
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

func explainURL(base string, vertex int, region [4]float64) string {
	return fmt.Sprintf("%s/v1/explain?vertex=%d&region=%g,%g,%g,%g",
		base, vertex, region[0], region[1], region[2], region[3])
}

// TestExplainEndpoint covers the EXPLAIN route in static mode: answers
// match the oracle, a fresh query reports real work, and the repeat is
// a cache hit with zero work counters (the engine never ran).
func TestExplainEndpoint(t *testing.T) {
	net := testNetwork(t)
	idx := net.MustBuild(rangereach.SpaReachBFL)
	oracle := net.MustBuild(rangereach.Naive)

	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(21))
	space := net.Space()
	var firstURL string
	var firstStats rangereach.QueryStats
	for i := 0; i < 25; i++ {
		v := rng.Intn(net.NumVertices())
		region := randRegion(rng, space)
		url := explainURL(ts.URL, v, region)
		var resp explainResponse
		status, body := getJSON(t, ts.Client(), url, &resp)
		if status != http.StatusOK {
			t.Fatalf("explain status %d: %s", status, body)
		}
		want := oracle.RangeReach(v, rangereach.NewRect(region[0], region[1], region[2], region[3]))
		if resp.Reachable != want {
			t.Fatalf("explain %d: got %v, oracle %v", i, resp.Reachable, want)
		}
		if resp.Stats.Method != "SpaReach-BFL" {
			t.Fatalf("explain %d: stats.Method = %q", i, resp.Stats.Method)
		}
		if resp.Stats.CacheHit {
			t.Fatalf("explain %d: fresh query reported a cache hit", i)
		}
		if i == 0 {
			firstURL, firstStats = url, resp.Stats
		}
	}
	if firstStats.Duration <= 0 {
		t.Errorf("fresh explain reported no duration: %+v", firstStats)
	}

	// The repeat hits the cache: CacheHit set, every work counter zero.
	var resp explainResponse
	if status, body := getJSON(t, ts.Client(), firstURL, &resp); status != http.StatusOK {
		t.Fatalf("repeat explain status %d: %s", status, body)
	}
	if !resp.Stats.CacheHit {
		t.Fatal("repeated explain not served from cache")
	}
	qs := resp.Stats
	if qs.Labels != 0 || qs.IndexNodes != 0 || qs.IndexLeaves != 0 || qs.IndexEntries != 0 ||
		qs.Candidates != 0 || qs.ReachProbes != 0 || qs.GraphVisited != 0 ||
		qs.Enumerated != 0 || qs.Members != 0 || len(qs.Stages) != 0 {
		t.Errorf("cache-hit stats report engine work: %+v", qs)
	}
	if qs.Method != "SpaReach-BFL" {
		t.Errorf("cache-hit stats.Method = %q", qs.Method)
	}

	// Malformed parameters are 400s.
	for _, bad := range []string{
		"/v1/explain?vertex=x&region=0,0,1,1",
		"/v1/explain?vertex=0&region=0,0,1",
		"/v1/explain?vertex=0&region=a,b,c,d",
		fmt.Sprintf("/v1/explain?vertex=%d&region=0,0,1,1", net.NumVertices()+3),
	} {
		if status, body := getJSON(t, ts.Client(), ts.URL+bad, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", bad, status, body)
		}
	}
}

// TestExplainDynamic covers the EXPLAIN route against the snapshot-swap
// serving path.
func TestExplainDynamic(t *testing.T) {
	net := testNetwork(t)
	srv, err := New(Config{Dynamic: net.BuildDynamic(), CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	oracle := net.MustBuild(rangereach.Naive)
	rng := rand.New(rand.NewSource(5))
	space := net.Space()
	for i := 0; i < 20; i++ {
		v := rng.Intn(net.NumVertices())
		region := randRegion(rng, space)
		var resp explainResponse
		status, body := getJSON(t, ts.Client(), explainURL(ts.URL, v, region), &resp)
		if status != http.StatusOK {
			t.Fatalf("explain status %d: %s", status, body)
		}
		want := oracle.RangeReach(v, rangereach.NewRect(region[0], region[1], region[2], region[3]))
		if resp.Reachable != want {
			t.Fatalf("dynamic explain: got %v, oracle %v", resp.Reachable, want)
		}
		if resp.Stats.Method != "3DReach-Dynamic" {
			t.Fatalf("stats.Method = %q", resp.Stats.Method)
		}
	}
}

// metricFamilies scrapes h's /metrics and returns the family names its
// "# TYPE" lines declare, with the whole exposition.
func metricFamilies(t *testing.T, h http.Handler) (map[string]bool, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams := make(map[string]bool)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams[f[2]] = true
		}
	}
	return fams, rec.Body.String()
}

// TestObservabilityMetricFamilies pins rrserve's /metrics census: a
// static server with a shard id and a dynamic server together expose
// exactly the 17 families DESIGN.md §8 gives a reader, and none of the
// ones the census removed.
func TestObservabilityMetricFamilies(t *testing.T) {
	net := testNetwork(t)
	static, err := New(Config{Index: net.MustBuild(rangereach.ThreeDReach), ShardID: "3"})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	dynamic, err := New(Config{Dynamic: net.BuildDynamic()})
	if err != nil {
		t.Fatal(err)
	}
	defer dynamic.Close()

	// One explain lands in the request counter of its endpoint.
	space := net.Space()
	region := [4]float64{space.MinX, space.MinY, space.MaxX, space.MaxY}
	rec := httptest.NewRecorder()
	static.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, explainURL("", 1, region), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("explain status %d: %s", rec.Code, rec.Body.String())
	}

	got, staticBody := metricFamilies(t, static.Handler())
	dynFams, _ := metricFamilies(t, dynamic.Handler())
	for f := range dynFams {
		got[f] = true
	}
	want := []string{
		"rr_requests_total", "rr_request_errors_total", "rr_queries_total",
		"rr_inflight_requests", "rr_query_seconds",
		"rr_cache_hits_total", "rr_cache_misses_total", "rr_cache_hit_ratio",
		"rr_build_seconds", "rr_generation", "rr_publish_check_failures_total",
		"rr_incr_overlay_entries", "rr_incr_tombstones",
		"rr_incr_live_components", "rr_incr_max_label_intervals",
		"go_goroutines", "go_memstats_heap_alloc_bytes",
	}
	// The set is exact: a family the census removed, or one added
	// without a reader, fails here.
	for _, f := range want {
		if !got[f] {
			t.Errorf("metrics missing family %s", f)
		}
		delete(got, f)
	}
	for f := range got {
		t.Errorf("metrics expose %s, which has no reader in the census", f)
	}
	if !strings.Contains(staticBody, `rr_requests_total{endpoint="explain"} 1`) {
		t.Error("the explain request is not counted")
	}
	// Runtime gauges carry live values, not zeros.
	if strings.Contains(staticBody, "go_goroutines 0\n") {
		t.Error("go_goroutines reads 0")
	}
}

// TestRequestLogging captures the structured log stream: every request
// yields one record with correlation fields, a traced query (one with a
// traceparent header) attaches its profile, and slow requests elevate
// to Warn.
func TestRequestLogging(t *testing.T) {
	net := testNetwork(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv, err := New(Config{
		Index:        net.MustBuild(rangereach.ThreeDReach),
		Logger:       logger,
		CacheEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	space := net.Space()
	region := [4]float64{space.MinX, space.MinY, space.MaxX, space.MaxY}
	body, err := json.Marshal(queryRequest{Vertex: 0, Region: region})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.TraceparentHeader, fixedTraceparent)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query status %d", resp.StatusCode)
	}
	if status, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		queryRequest{Vertex: -1, Region: region}, nil); status != http.StatusBadRequest {
		t.Fatalf("bad query status %d, want 400", status)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log records, want 2:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["msg"] != "request" || rec["method"] != "POST" || rec["path"] != "/v1/query" {
		t.Errorf("first record = %v", rec)
	}
	if rec["status"] != float64(http.StatusOK) {
		t.Errorf("first record status = %v", rec["status"])
	}
	if _, ok := rec["req"]; !ok {
		t.Error("record missing request id")
	}
	if _, ok := rec["elapsed"]; !ok {
		t.Error("record missing latency")
	}
	if tr, ok := rec["trace"].(string); !ok || !strings.Contains(tr, "3DReach") {
		t.Errorf("traced query record missing profile: %v", rec["trace"])
	}
	var rec2 map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &rec2); err != nil {
		t.Fatal(err)
	}
	if rec2["status"] != float64(http.StatusBadRequest) {
		t.Errorf("second record status = %v", rec2["status"])
	}

	// With SlowQuery=1ns every request is a Warn-level "slow request".
	buf.Reset()
	srv2, err := New(Config{
		Index:     net.MustBuild(rangereach.ThreeDReach),
		Logger:    logger,
		SlowQuery: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if status, _ := postJSON(t, ts2.Client(), ts2.URL+"/v1/query",
		queryRequest{Vertex: 0, Region: region}, nil); status != http.StatusOK {
		t.Fatal("query failed")
	}
	var slow map[string]any
	if err := json.Unmarshal(buf.Bytes(), &slow); err != nil {
		t.Fatal(err)
	}
	if slow["msg"] != "slow request" || slow["level"] != "WARN" {
		t.Errorf("slow record = %v", slow)
	}
}

// TestShardObservability covers the cluster-facing surface a single
// rrserve exposes when it runs as one shard: a traced request echoes
// the shard id, trace id and execution stats for the router to stitch;
// the slow-query warning carries both correlation fields so a WARN
// greps straight to its cluster trace; and /metrics exports the cache
// hit ratio that the router's /v1/cluster view scrapes.
func TestShardObservability(t *testing.T) {
	net := testNetwork(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv, err := New(Config{
		Index:     net.MustBuild(rangereach.ThreeDReach),
		Logger:    logger,
		SlowQuery: time.Nanosecond, // every request logs as a slow WARN
		ShardID:   "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	space := net.Space()
	region := [4]float64{space.MinX, space.MinY, space.MaxX, space.MaxY}
	const traceID = "0af7651916cd43dd8448eb211c80319c"
	body, err := json.Marshal(queryRequest{Vertex: 0, Region: region})
	if err != nil {
		t.Fatal(err)
	}
	doTraced := func() queryResponse {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traced query status %d", resp.StatusCode)
		}
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}

	// Fresh traced query: shard + trace id + real execution stats.
	qr := doTraced()
	if qr.Shard != "3" || qr.TraceID != traceID {
		t.Fatalf("traced response shard=%q trace_id=%q, want 3 / %s", qr.Shard, qr.TraceID, traceID)
	}
	if qr.Stats == nil || qr.Stats.CacheHit || len(qr.Stats.Stages) == 0 {
		t.Fatalf("traced response stats = %+v, want a fresh execution profile", qr.Stats)
	}
	// Repeat from the cache: stats still ride back, flagged as a hit,
	// so the router's stitched trace shows where the answer came from.
	qr = doTraced()
	if !qr.Cached || qr.Stats == nil || !qr.Stats.CacheHit {
		t.Fatalf("cached traced response = %+v, want cache-hit stats", qr)
	}

	// Every request above elevated to a slow WARN carrying both
	// correlation fields.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log records, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["level"] != "WARN" || rec["msg"] != "slow request" {
			t.Errorf("record not a slow WARN: %v", rec)
		}
		if rec["shard"] != "3" {
			t.Errorf("slow WARN missing shard id: %v", rec)
		}
		if rec["trace_id"] != traceID {
			t.Errorf("slow WARN missing trace id: %v", rec)
		}
	}

	// The hit ratio /v1/cluster reads reflects the 1-hit/2-lookup
	// history.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"# TYPE rr_cache_hit_ratio gauge",
		"rr_cache_hit_ratio 0.5",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
