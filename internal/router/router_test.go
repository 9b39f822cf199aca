package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
)

// swapHandler lets a backend's behavior be installed, and replaced,
// after the router over it is built.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "no handler installed", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// testMap builds a shard map with the given per-shard bounds over a
// 100-vertex id space.
func testMap(bounds ...[4]float64) *shard.Map {
	m := &shard.Map{
		Version:  shard.MapVersion,
		Name:     "test",
		Strategy: "spatial",
		Vertices: 100,
		Space:    [4]float64{0, 0, 10, 10},
	}
	for i, b := range bounds {
		m.Shards = append(m.Shards, shard.MapShard{ID: i, Venues: 5, Bounds: b})
	}
	return m
}

// testCluster starts one stub backend per shard, shard i on backend i,
// and returns the router plus an installer for per-shard behavior.
func testCluster(t *testing.T, m *shard.Map, cfg Config) (*Router, func(sid int, h http.HandlerFunc)) {
	t.Helper()
	rt, install, _ := countedCluster(t, m, cfg)
	return rt, install
}

func answer(reachable bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"reachable":%v}`, reachable)
	}
}

func postQuery(t *testing.T, h http.Handler, vertex int, region [4]float64) (*httptest.ResponseRecorder, queryResponse) {
	t.Helper()
	body, err := json.Marshal(queryRequest{Vertex: vertex, Region: region})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
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

func postBatch(t *testing.T, h http.Handler, queries []queryRequest) (*httptest.ResponseRecorder, batchResponse) {
	t.Helper()
	body, err := json.Marshal(batchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp batchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response %q: %v", rec.Body.String(), err)
		}
	}
	return rec, resp
}

var wholeSpace = [4]float64{0, 0, 10, 10}

func TestQueryFirstPositiveCancelsRemaining(t *testing.T) {
	m := testMap(wholeSpace, wholeSpace)
	rt, install := testCluster(t, m, Config{})
	started, canceled := make(chan struct{}), make(chan struct{})
	// The fast shard holds its positive until the slow shard's handler
	// is running: a cancel that lands before the request is even sent
	// never reaches a handler, and canceled would never close.
	install(0, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-started:
			answer(true)(w, r)
		case <-r.Context().Done():
		}
	})
	install(1, func(w http.ResponseWriter, r *http.Request) {
		close(started)
		// Drain the body first: net/http only watches for client
		// disconnect (and cancels r.Context) once the request body is
		// consumed — which rrserve's JSON decode always does. Then park
		// until the router's early exit cancels the call; a shard that
		// never observes the cancel would hang the full 2s shard
		// timeout and fail the deadline below.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			close(canceled)
		case <-time.After(5 * time.Second): // nobody canceled: the wait below has failed
		}
	})
	start := time.Now()
	rec, resp := postQuery(t, rt.Handler(), 1, wholeSpace)
	if rec.Code != http.StatusOK || !resp.Reachable {
		t.Fatalf("want positive 200, got %d %q", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("positive answer took %v; early exit did not fire", elapsed)
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("slow shard never saw the cancellation")
	}
	if resp.Shards != 2 {
		t.Fatalf("response consulted %d shards, want 2", resp.Shards)
	}
}

func TestQueryAllNegativeWaitsForAllShards(t *testing.T) {
	m := testMap(wholeSpace, wholeSpace, wholeSpace)
	rt, install := testCluster(t, m, Config{})
	var completed atomic.Int32
	for sid := 0; sid < 3; sid++ {
		install(sid, func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(20 * time.Millisecond)
			completed.Add(1)
			answer(false)(w, r)
		})
	}
	rec, resp := postQuery(t, rt.Handler(), 1, wholeSpace)
	if rec.Code != http.StatusOK || resp.Reachable {
		t.Fatalf("want negative 200, got %d %q", rec.Code, rec.Body.String())
	}
	if got := completed.Load(); got != 3 {
		t.Fatalf("router answered after %d of 3 shards", got)
	}
	if resp.Partial {
		t.Fatal("clean all-negative flagged partial")
	}
}

func TestQueryShardDownPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy     Policy
		liveAnswer bool
		wantCode   int
		wantReach  bool
		wantPart   bool
	}{
		// A live positive is exact no matter what failed.
		{PolicyFail, true, http.StatusOK, true, false},
		{PolicyDegrade, true, http.StatusOK, true, false},
		// All-negative with a dead shard: fail vs degrade.
		{PolicyFail, false, http.StatusBadGateway, false, false},
		{PolicyDegrade, false, http.StatusOK, false, true},
	} {
		t.Run(fmt.Sprintf("%v-live-%v", tc.policy, tc.liveAnswer), func(t *testing.T) {
			m := testMap(wholeSpace, wholeSpace)
			rt, install := testCluster(t, m, Config{Policy: tc.policy})
			install(0, answer(tc.liveAnswer))
			install(1, func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "boom", http.StatusInternalServerError)
			})
			rec, resp := postQuery(t, rt.Handler(), 1, wholeSpace)
			if rec.Code != tc.wantCode {
				t.Fatalf("got %d %q, want %d", rec.Code, rec.Body.String(), tc.wantCode)
			}
			if rec.Code == http.StatusOK && (resp.Reachable != tc.wantReach || resp.Partial != tc.wantPart) {
				t.Fatalf("got reachable=%v partial=%v, want %v/%v", resp.Reachable, resp.Partial, tc.wantReach, tc.wantPart)
			}
		})
	}
}

func TestQueryBoundsPruning(t *testing.T) {
	left := [4]float64{0, 0, 4, 10}
	right := [4]float64{6, 0, 10, 10}
	m := testMap(left, right)
	rt, install := testCluster(t, m, Config{})
	var rightHits atomic.Int32
	install(0, answer(true))
	install(1, func(w http.ResponseWriter, r *http.Request) {
		rightHits.Add(1)
		answer(false)(w, r)
	})
	rec, resp := postQuery(t, rt.Handler(), 1, [4]float64{1, 1, 2, 2})
	if rec.Code != http.StatusOK || !resp.Reachable {
		t.Fatalf("got %d %q", rec.Code, rec.Body.String())
	}
	if resp.Shards != 1 {
		t.Fatalf("consulted %d shards, want 1 (right shard pruned)", resp.Shards)
	}
	if rightHits.Load() != 0 {
		t.Fatal("pruned shard was called")
	}
	// A region intersecting no shard answers negative with no calls.
	rec, resp = postQuery(t, rt.Handler(), 1, [4]float64{4.5, 0, 5.5, 10})
	if rec.Code != http.StatusOK || resp.Reachable || resp.Shards != 0 {
		t.Fatalf("gap query: got %d %+v", rec.Code, resp)
	}
}

func TestBatchSubsetsAndMerge(t *testing.T) {
	left := [4]float64{0, 0, 4, 10}
	right := [4]float64{6, 0, 10, 10}
	m := testMap(left, right)
	rt, install := testCluster(t, m, Config{})
	var leftGot, rightGot atomic.Int32
	batchStub := func(got *atomic.Int32, result bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req batchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			got.Add(int32(len(req.Queries)))
			results := make([]bool, len(req.Queries))
			for i := range results {
				results[i] = result
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(shardBatchReply{Results: results})
		}
	}
	install(0, batchStub(&leftGot, true))
	install(1, batchStub(&rightGot, false))
	queries := []queryRequest{
		{Vertex: 1, Region: [4]float64{1, 1, 2, 2}},   // left only
		{Vertex: 2, Region: [4]float64{7, 1, 8, 2}},   // right only
		{Vertex: 3, Region: [4]float64{1, 1, 9, 9}},   // spans both
		{Vertex: 4, Region: [4]float64{4.5, 1, 5, 2}}, // neither
	}
	rec, resp := postBatch(t, rt.Handler(), queries)
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d %q", rec.Code, rec.Body.String())
	}
	want := []bool{true, false, true, false}
	for i, w := range want {
		if resp.Results[i] != w {
			t.Fatalf("query %d: got %v, want %v (results %v)", i, resp.Results[i], w, resp.Results)
		}
	}
	if leftGot.Load() != 2 || rightGot.Load() != 2 {
		t.Fatalf("subset sizes: left=%d right=%d, want 2/2", leftGot.Load(), rightGot.Load())
	}
}

func TestBatchShardDownPolicies(t *testing.T) {
	m := testMap(wholeSpace, wholeSpace)
	queries := []queryRequest{{Vertex: 1, Region: wholeSpace}}
	t.Run("fail", func(t *testing.T) {
		rt, install := testCluster(t, m, Config{Policy: PolicyFail})
		install(0, answerBatch(false))
		install(1, http.NotFound)
		rec, _ := postBatch(t, rt.Handler(), queries)
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("got %d %q, want 502", rec.Code, rec.Body.String())
		}
	})
	t.Run("degrade", func(t *testing.T) {
		rt, install := testCluster(t, m, Config{Policy: PolicyDegrade})
		install(0, answerBatch(false))
		install(1, http.NotFound)
		rec, resp := postBatch(t, rt.Handler(), queries)
		if rec.Code != http.StatusOK || !resp.Partial {
			t.Fatalf("got %d partial=%v, want 200 partial", rec.Code, resp.Partial)
		}
	})
}

func answerBatch(result bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req batchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]bool, len(req.Queries))
		for i := range results {
			results[i] = result
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(shardBatchReply{Results: results})
	}
}

func TestHealthMarkdownAndRecovery(t *testing.T) {
	m := testMap(wholeSpace)
	rt, install := testCluster(t, m, Config{
		Policy:       PolicyFail,
		DownAfter:    2,
		DownCooldown: 60 * time.Millisecond,
	})
	var calls atomic.Int32
	var healthy atomic.Bool
	install(0, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		answer(true)(w, r)
	})
	// Two failures cross DownAfter.
	for i := 0; i < 2; i++ {
		if rec, _ := postQuery(t, rt.Handler(), 1, wholeSpace); rec.Code != http.StatusBadGateway {
			t.Fatalf("failure %d: got %d", i, rec.Code)
		}
	}
	if !rt.health[0].isDown() {
		t.Fatal("shard not marked down after DownAfter failures")
	}
	// While down, requests short-circuit without touching the backend.
	before := calls.Load()
	if rec, _ := postQuery(t, rt.Handler(), 1, wholeSpace); rec.Code != http.StatusBadGateway {
		t.Fatalf("marked-down query: got %d", rec.Code)
	}
	if calls.Load() != before {
		t.Fatal("marked-down shard was still called")
	}
	var mb strings.Builder
	if err := rt.Metrics().WritePrometheus(&mb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mb.String(), `rr_router_shard_down{shard="0"} 1`) {
		t.Fatalf("mark-down gauge not exported:\n%s", mb.String())
	}
	// After the cooldown a half-open trial against a recovered backend
	// closes the breaker.
	healthy.Store(true)
	time.Sleep(80 * time.Millisecond)
	rec, resp := postQuery(t, rt.Handler(), 1, wholeSpace)
	if rec.Code != http.StatusOK || !resp.Reachable {
		t.Fatalf("recovery query: got %d %q", rec.Code, rec.Body.String())
	}
	if rt.health[0].isDown() {
		t.Fatal("shard still marked down after successful trial")
	}
}

// TestCanceledProbeDoesNotStickShardDown is the router-level
// regression test for the half-open probe leak: an early exit that
// cancels a marked-down shard's trial request must release the probe,
// so the shard can still recover on a later request.
func TestCanceledProbeDoesNotStickShardDown(t *testing.T) {
	m := testMap(wholeSpace, wholeSpace)
	rt, install := testCluster(t, m, Config{
		Policy:       PolicyDegrade,
		DownAfter:    1,
		DownCooldown: 50 * time.Millisecond,
	})
	// Mark shard 1 down.
	install(0, answer(false))
	install(1, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	})
	if rec, resp := postQuery(t, rt.Handler(), 1, wholeSpace); rec.Code != http.StatusOK || !resp.Partial {
		t.Fatalf("mark-down query: got %d %q", rec.Code, rec.Body.String())
	}
	if !rt.health[1].isDown() {
		t.Fatal("shard 1 not marked down")
	}
	// After the cooldown, shard 1's half-open trial parks until it is
	// canceled by shard 0's positive (early exit) — the probe ends with
	// neither success nor failure.
	install(0, answer(true))
	install(1, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second): // nobody canceled: the deadline below fails first
		}
	})
	time.Sleep(80 * time.Millisecond)
	if rec, resp := postQuery(t, rt.Handler(), 1, wholeSpace); rec.Code != http.StatusOK || !resp.Reachable {
		t.Fatalf("early-exit query: got %d %q", rec.Code, rec.Body.String())
	}
	// Shard 1 is healthy again; the router must eventually grant it a
	// fresh trial. With the probe leaked, every query below would stay
	// a degraded negative forever.
	install(0, answer(false))
	install(1, answer(true))
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, resp := postQuery(t, rt.Handler(), 1, wholeSpace)
		if resp.Reachable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered shard never probed again: canceled trial leaked the probe")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rt.health[1].isDown() {
		t.Fatal("shard 1 still marked down after successful trial")
	}
}

// TestBatchFailedShardExactPositives: a failed shard whose queries all
// have positives from live shards does not make the batch ambiguous —
// the result is exact, so PolicyFail must not answer 502 and the
// response is not partial.
func TestBatchFailedShardExactPositives(t *testing.T) {
	left := [4]float64{0, 0, 4, 10}
	right := [4]float64{6, 0, 10, 10}
	m := testMap(left, right)
	rt, install := testCluster(t, m, Config{Policy: PolicyFail})
	// Left answers after the right shard's failure has already landed,
	// so the all-settled state is only reached on the final shard result
	// (the early-exit branch is skipped).
	install(0, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		var req batchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]bool, len(req.Queries))
		for i, q := range req.Queries {
			results[i] = q.Vertex != 2 // the left-only query for vertex 2 stays negative
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(shardBatchReply{Results: results})
	})
	install(1, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	queries := []queryRequest{
		{Vertex: 1, Region: [4]float64{1, 1, 9, 9}}, // spans both; positive from left
		{Vertex: 2, Region: [4]float64{1, 1, 2, 2}}, // left only; negative from a live shard
	}
	rec, resp := postBatch(t, rt.Handler(), queries)
	if rec.Code != http.StatusOK {
		t.Fatalf("got %d %q, want 200: failed shard's only query is positive elsewhere", rec.Code, rec.Body.String())
	}
	if !resp.Results[0] || resp.Results[1] {
		t.Fatalf("results %v, want [true false]", resp.Results)
	}
	if resp.Partial {
		t.Fatal("exact result flagged partial")
	}
}

func TestRouterValidation(t *testing.T) {
	m := testMap(wholeSpace)
	rt, install := testCluster(t, m, Config{MaxBodyBytes: 256, MaxBatch: 4})
	install(0, answer(false))

	rec, _ := postQuery(t, rt.Handler(), 100, wholeSpace)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range vertex: got %d", rec.Code)
	}
	rec, _ = postBatch(t, rt.Handler(), nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: got %d", rec.Code)
	}
	rec, _ = postBatch(t, rt.Handler(), make([]queryRequest, 5))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: got %d", rec.Code)
	}
	big := bytes.Repeat([]byte(" "), 1024)
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(big))
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "exceeds") {
		t.Fatalf("413 body is not the JSON error: %q", rec.Body.String())
	}
}

func TestRouterHealthz(t *testing.T) {
	m := testMap(wholeSpace, wholeSpace)
	rt, install := testCluster(t, m, Config{})
	install(0, answer(false))
	install(1, answer(false))
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: got %d", rec.Code)
	}
	var resp healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Shards != 2 || resp.Vertices != 100 || resp.Strategy != "spatial" {
		t.Fatalf("healthz payload %+v", resp)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error without a map")
	}
	if _, err := New(Config{Map: testMap(wholeSpace)}); err == nil {
		t.Fatal("want error without backends")
	}
	bad := testMap(wholeSpace)
	bad.Version = 9
	if _, err := New(Config{Map: bad, Backends: []string{"http://x"}}); err == nil {
		t.Fatal("want error for invalid map")
	}
}

// backendURLs names n distinct backends.
func backendURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://b%d:80", i)
	}
	return urls
}

// TestPlacementCoversEveryShard: a backend list that does not give
// every shard a process of its own is refused. Fewer backends than
// shards, or one backend named twice, would put two shards on one
// process, which serves only one of them; more would leave a backend
// no shard.
func TestPlacementCoversEveryShard(t *testing.T) {
	m := testMap(wholeSpace, wholeSpace, wholeSpace)
	for _, backends := range []int{2, 4} {
		_, err := New(Config{Map: m, Backends: backendURLs(backends)})
		if err == nil {
			t.Fatalf("3 shards over %d backends: accepted, want an error", backends)
		}
		for _, count := range []string{"3 shards", fmt.Sprintf("%d backends", backends)} {
			if !strings.Contains(err.Error(), count) {
				t.Errorf("3 shards over %d backends: error %q does not name %q", backends, err, count)
			}
		}
	}
	twice := backendURLs(3)
	twice[2] = twice[0]
	if _, err := New(Config{Map: m, Backends: twice}); err == nil || !strings.Contains(err.Error(), twice[0]) {
		t.Fatalf("a backend named twice: got %v, want an error naming it", err)
	}
}

// TestPlacementPerfectMatchingAtEqualCounts: shard i is served by the
// i-th backend, so one rrserve process holds one shard index.
func TestPlacementPerfectMatchingAtEqualCounts(t *testing.T) {
	for n := 1; n <= 8; n++ {
		bounds := make([][4]float64, n)
		for i := range bounds {
			bounds[i] = wholeSpace
		}
		backends := backendURLs(n)
		rt, err := New(Config{Map: testMap(bounds...), Backends: backends})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, b := range backends {
			if got := rt.BackendFor(i); got != b {
				t.Errorf("n=%d: shard %d served by %s, want %s", n, i, got, b)
			}
		}
		rt.Close()
	}
}

// TestDialHonorsContext: the pooled transport dials under the call's
// context, so a call canceled before it has a connection opens none.
func TestDialHonorsContext(t *testing.T) {
	rt, _ := testCluster(t, testMap(wholeSpace), Config{})
	dial := rt.client.Transport.(*http.Transport).DialContext
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if conn, err := dial(ctx, "tcp", strings.TrimPrefix(rt.BackendFor(0), "http://")); err == nil {
		_ = conn.Close()
		t.Fatal("dialed a backend under a canceled context")
	}
}
