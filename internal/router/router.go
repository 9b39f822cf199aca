// Package router implements the rrrouter tier of sharded RangeReach
// serving: an HTTP front that fans each query out to the rrserve shard
// processes holding the venue partition (internal/shard) and
// OR-combines their answers.
//
// Because the shards partition the venue set while sharing the global
// vertex-id space, the router needs no vertex translation and the
// scatter-gather combine is exact: a query is positive iff some shard
// answers positively. That shape drives the whole design:
//
//   - Spatial pruning: a shard is called only if its venue bounds meet
//     the query region and so does one of its occupied cells (the shard
//     map's 64×64 bitmap). A shard with no venue in the region cannot
//     answer positively.
//   - Early exit: the first positive shard answer settles the query and
//     answers the client at once. The shard calls still in flight are
//     abandoned, not canceled: canceling an HTTP/1.1 request closes its
//     connection, and the next call to that shard would pay for a dial.
//     They finish on a context detached from the request, report to
//     health and the trace as any call does, and hand their connection
//     back to the pool; only one that outlives a short grace is
//     canceled (see scatter).
//   - Pass-through: a query whose region only one shard can hold a
//     venue in is that shard's to answer; the router calls it on the
//     handler's goroutine with the bytes it received.
//   - Failed shards: a positive from any live shard is exact even if
//     other shards are down. Only a negative depends on every shard it
//     asked, so a negative with a failed shard behind it is answered
//     502, never 200: every 200 the router sends is exact.
//   - Hang-ups: a client that goes away while its shards are asked is
//     answered 499 (httpjson.CancelStatus); the calls it cancels are not
//     shard failures.
//
// The router speaks the httpjson wire types: Router* replies to its
// clients, and the Server* types to decode its shards. Its query, batch
// and update handlers run behind the httpjson.Front rrserve shares,
// with the cluster trace as the front's trace hook.
//
// Placement is a rule: shard i is served by Config.Backends[i], one
// rrserve process per shard, and New refuses a backend list whose length
// is not the shard count. Per-shard health is tracked passively with
// mark-down and half-open recovery (see health).
//
// When the shards serve dynamic indexes, POST /v1/update routes each
// mutation to the owning shard(s) — graph ops broadcast to the
// replicated social graph, venue ops go to their owning shard with
// id-space-aligning placeholders elsewhere (see update.go) — and
// GET /v1/cluster reports each shard's snapshot generation plus the
// cluster-wide maximum.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/httpjson"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Config assembles a Router.
type Config struct {
	// Map is the cluster topology (required).
	Map *shard.Map
	// Backends are the rrserve base URLs, one per shard: Backends[i]
	// serves shard i (required, exactly Map.NumShards() of them).
	Backends []string
	// ShardTimeout bounds each shard call (default 2s).
	ShardTimeout time.Duration
	// MaxBodyBytes caps request bodies; oversized bodies get 413
	// (default 8 MiB, negative disables).
	MaxBodyBytes int64
	// Logger receives one structured record per request. Nil disables.
	Logger *slog.Logger
	// TraceSample enables ambient trace collection: every request
	// collects spans and a tail decision keeps all slow or errored
	// traces plus one in TraceSample healthy ones. Zero disables ambient
	// collection; requests carrying a client traceparent header are
	// always collected and kept regardless.
	TraceSample int
	// TraceSlow is the latency at which a trace is always retained
	// (default 100ms).
	TraceSlow time.Duration
	// TraceRing caps the retained-trace ring served by /v1/trace/{id}
	// (default 256).
	TraceRing int
	// Transport overrides the outbound HTTP transport (tests); nil
	// selects a pooled transport with per-backend connection reuse.
	Transport http.RoundTripper
}

// Router is the scatter-gather front. Create with New, expose via
// Handler, Close when done to release idle backend connections.
type Router struct {
	cfg    Config
	mux    *http.ServeMux
	client *http.Client
	// calls counts the shard calls running on goroutines of their own.
	// An abandoned straggler outlives the request that started it; Close
	// waits here so nothing of this router's is still talking to a shard
	// when it returns.
	calls sync.WaitGroup
	// grid maps coordinates to the cells of the shard map's bitmaps.
	grid grid.Uniform
	// view is the per-shard pruning view, copy-on-write: readers
	// atomically load it, the update path (under updateMu) replaces it
	// when a new or moved venue grows a shard's bounds or cells.
	view     atomic.Pointer[placement]
	updateMu sync.Mutex
	health   []*health

	reg        *metrics.Registry
	mReqQuery  *metrics.Counter
	mReqBatch  *metrics.Counter
	mReqUpdate *metrics.Counter
	mReqErrs   *metrics.Counter
	mEarlyExit *metrics.Counter
	mPruned    *metrics.Counter
	mDials     *metrics.Counter // nil when Config.Transport is overridden
	mInflight  *metrics.Gauge
	mLatency   *metrics.Histogram
	mShardReqs []*metrics.Counter
	mShardErrs []*metrics.Counter
	mShardLat  []*metrics.Histogram

	mTraces     *metrics.Counter
	mTracesKept *metrics.Counter
	ring        *trace.Ring
	sampler     *trace.Sampler

	fed *federator

	front *httpjson.Front
}

// New builds a Router over the shard map and backend set.
func New(cfg Config) (*Router, error) {
	if cfg.Map == nil {
		return nil, errors.New("router: Config.Map is required")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	// Every shard needs a process of its own: a shard without one would
	// never be asked, and its venues' positives would be answered as
	// negatives.
	n := cfg.Map.NumShards()
	if len(cfg.Backends) != n {
		return nil, fmt.Errorf("router: %d backends for %d shards; shard i is served by the i-th backend, so the counts must match", len(cfg.Backends), n)
	}
	for i, b := range cfg.Backends {
		if j := slices.Index(cfg.Backends[:i], b); j >= 0 {
			return nil, fmt.Errorf("router: shards %d and %d are both served by %s; each shard needs a backend of its own", j, i, b)
		}
	}
	cfg.Backends = slices.Clone(cfg.Backends) // the caller's slice may change
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.TraceSlow <= 0 {
		cfg.TraceSlow = 100 * time.Millisecond
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 256
	}
	rt := &Router{
		cfg:     cfg,
		health:  make([]*health, n),
		reg:     metrics.NewRegistry(),
		ring:    trace.NewRing(cfg.TraceRing),
		sampler: &trace.Sampler{N: cfg.TraceSample, Slow: cfg.TraceSlow},
	}
	rt.grid = cfg.Map.Grid()
	view := &placement{bounds: make([]geom.Rect, n), cells: make([]grid.Bitmap, n)}
	for i, s := range cfg.Map.Shards {
		view.bounds[i], view.cells[i] = s.BoundsRect(), cfg.Map.Cells(i)
		rt.health[i] = newHealth(nil)
	}
	rt.view.Store(view)
	transport := cfg.Transport
	if transport == nil {
		rt.mDials = rt.reg.Counter("rr_router_backend_dials_total", "Connections the router opened to its backends; a rate near the query rate means calls are not reusing connections.")
		var dialer net.Dialer // the zero Dialer is what a Transport without DialContext uses
		transport = &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				rt.mDials.Inc()
				return dialer.DialContext(ctx, network, addr)
			},
			MaxIdleConns:        4 * n,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			// Shards never compress; this drops the Accept-Encoding header
			// and the gzip check from every call.
			DisableCompression: true,
		}
	}
	rt.client = &http.Client{Transport: transport}

	rt.mReqQuery = rt.reg.Counter(`rr_router_requests_total{endpoint="query"}`, "Router HTTP requests by endpoint.")
	rt.mReqBatch = rt.reg.Counter(`rr_router_requests_total{endpoint="batch"}`, "Router HTTP requests by endpoint.")
	rt.mReqUpdate = rt.reg.Counter(`rr_router_requests_total{endpoint="update"}`, "Router HTTP requests by endpoint.")
	rt.mReqErrs = rt.reg.Counter("rr_router_request_errors_total", "Router requests answered with a non-2xx status.")
	rt.mEarlyExit = rt.reg.Counter("rr_router_early_exits_total", "Scatter-gathers settled by a positive before every shard answered.")
	rt.mPruned = rt.reg.Counter("rr_router_pruned_shards_total", "Shard calls skipped because the shard holds no venue the query region can meet: its venue bounds, or every occupied cell of its shard-map bitmap, miss the region.")
	rt.mInflight = rt.reg.Gauge("rr_router_inflight_requests", "Router requests currently being served.")
	rt.mLatency = rt.reg.Histogram("rr_router_query_seconds", "End-to-end latency of router query and batch requests.", nil)
	rt.mShardReqs = make([]*metrics.Counter, n)
	rt.mShardErrs = make([]*metrics.Counter, n)
	rt.mShardLat = make([]*metrics.Histogram, n)
	for i := 0; i < n; i++ {
		rt.mShardReqs[i] = rt.reg.Counter(
			fmt.Sprintf(`rr_router_shard_requests_total{shard="%d"}`, i),
			"Shard calls attempted, by shard.")
		rt.mShardErrs[i] = rt.reg.Counter(
			fmt.Sprintf(`rr_router_shard_errors_total{shard="%d"}`, i),
			"Failed shard calls, by shard (cancellations excluded).")
		rt.mShardLat[i] = rt.reg.Histogram(
			fmt.Sprintf(`rr_router_shard_latency_seconds{shard="%d"}`, i),
			"Latency of successful shard calls, by shard.", nil)
		h := rt.health[i]
		rt.reg.GaugeFunc(
			fmt.Sprintf(`rr_router_shard_down{shard="%d"}`, i),
			"1 while the shard is marked down, 0 otherwise.",
			func() float64 {
				if h.isDown() {
					return 1
				}
				return 0
			})
	}

	rt.mTraces = rt.reg.Counter("rr_router_traces_total", "Requests that collected a cluster trace.")
	rt.mTracesKept = rt.reg.Counter("rr_router_traces_kept_total", "Cluster traces retained by tail sampling.")
	rt.fed = newFederator(n)

	rt.front = &httpjson.Front{
		Inflight: rt.mInflight, Latency: rt.mLatency, Errors: rt.mReqErrs,
		MaxBody: cfg.MaxBodyBytes, Logger: cfg.Logger, Trace: rt.startTrace,
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/query", rt.front.Wrap("query", rt.mReqQuery, rt.handleQuery))
	rt.mux.HandleFunc("POST /v1/batch", rt.front.Wrap("batch", rt.mReqBatch, rt.handleBatch))
	rt.mux.HandleFunc("POST /v1/update", rt.front.Wrap("update", rt.mReqUpdate, rt.handleUpdate))
	rt.mux.HandleFunc("GET /v1/trace/{id}", rt.handleTrace)
	rt.mux.HandleFunc("GET /v1/traces", rt.handleTraces)
	rt.mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.Handle("GET /metrics", rt.reg)
	return rt, nil
}

// Handler returns the HTTP handler tree.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Metrics exposes the registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// BackendFor returns the backend base URL that serves shard id:
// Config.Backends[id].
func (rt *Router) BackendFor(id int) string { return rt.cfg.Backends[id] }

// Close waits for the shard calls the router still has in flight and
// releases idle backend connections. Call it after the HTTP server in
// front of Handler has drained: the calls left then are early-exit
// stragglers, each bounded by its grace and by ShardTimeout. When Close returns the router is talking to no shard,
// so a shard whose handler has answered every call it received is idle.
func (rt *Router) Close() {
	rt.calls.Wait()
	if t, ok := rt.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// writeQueryReply answers a /v1/query with resp.
func writeQueryReply(w http.ResponseWriter, sc *httpjson.Scratch, resp httpjson.RouterQueryReply) {
	sc.Out = resp.AppendJSON(sc.Out[:0])
	sc.Reply(w, http.StatusOK)
}

// ---- shard calls ----

var errShardDown = errors.New("shard marked down")

// callShard POSTs body to one shard and returns the response bytes.
// The call carries the per-shard timeout. Cancellation of parent (a
// straggler out of grace, or a client disconnect) is not held against
// the shard's health.
func (rt *Router) callShard(parent context.Context, sid int, path string, body []byte) ([]byte, error) {
	h := rt.health[sid]
	if !h.allow() {
		return nil, errShardDown
	}
	rt.mShardReqs[sid].Inc()
	ctx, cancel := context.WithTimeout(parent, rt.cfg.ShardTimeout)
	defer cancel()

	start := time.Now()
	data, err := rt.attempt(ctx, sid, path, body)
	if err != nil {
		if parent.Err() != nil {
			// The scatter-gather no longer needs this answer; neither an
			// error nor a health signal — but a half-open probe must be
			// released or allow() refuses the shard forever.
			h.abort()
			return nil, parent.Err()
		}
		h.report(false)
		rt.mShardErrs[sid].Inc()
		return nil, err
	}
	h.report(true)
	rt.mShardLat[sid].Observe(time.Since(start).Seconds())
	return data, nil
}

// attempt is one HTTP POST to a shard.
func (rt *Router) attempt(ctx context.Context, sid int, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rt.cfg.Backends[sid]+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// A query or batch is a read, safe to send twice. The key marks the
	// POST replayable, so net/http retries it itself when a pooled
	// connection turns out to be closed (a restarted backend); a nil
	// value keeps the header off the wire.
	req.Header["Idempotency-Key"] = nil
	if tb := traceFrom(ctx); tb != nil {
		// Same trace id, fresh span id per hop: the shard logs and
		// traces under the cluster-wide id.
		req.Header.Set(trace.TraceparentHeader, trace.FormatTraceparent(tb.traceID(), trace.NewSpanID()))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard %d: %s: %s", sid, resp.Status, firstLine(data))
	}
	return data, nil
}

// firstLine trims an error body for log-friendly messages.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// placement is the router's per-shard pruning view: each shard's venue
// bounds and occupied cells. It is immutable — the update path replaces,
// never mutates, it.
type placement struct {
	bounds []geom.Rect
	cells  []grid.Bitmap
}

// meets reports whether shard sid may hold a venue in region: its bounds
// meet the region and so does one of its marked cells. False is exact.
func (p *placement) meets(g grid.Uniform, sid int, region geom.Rect) bool {
	return p.bounds[sid].Intersects(region) && p.cells[sid].Meets(g, region)
}

// relevantShards appends to dst the shard ids that may hold a venue in
// the query region, counting the pruned remainder.
func (rt *Router) relevantShards(dst []int, region geom.Rect) []int {
	view := rt.view.Load()
	for sid := range view.bounds {
		if view.meets(rt.grid, sid, region) {
			dst = append(dst, sid)
		}
	}
	rt.mPruned.Add(int64(len(view.bounds) - len(dst)))
	return dst
}

// batchSubsets returns, per shard, the positions of the queries it may
// hold a venue for, and how many shards have any; a query no shard can
// answer stays negative without a network call. It counts the shards
// pruned outright.
func (rt *Router) batchSubsets(queries []httpjson.QueryRequest) (subsets [][]int, active int) {
	view := rt.view.Load()
	subsets = make([][]int, len(view.bounds))
	regions := make([]geom.Rect, len(queries))
	for i, q := range queries {
		regions[i] = regionRect(q.Region)
	}
	for sid := range subsets {
		for i, region := range regions {
			if view.meets(rt.grid, sid, region) {
				subsets[sid] = append(subsets[sid], i)
			}
		}
		if len(subsets[sid]) > 0 {
			active++
		}
	}
	rt.mPruned.Add(int64(len(subsets) - active))
	return subsets, active
}

func regionRect(r [4]float64) geom.Rect {
	return geom.NewRect(r[0], r[1], r[2], r[3])
}

// ---- handlers ----

// placementSpan records the pruning decision on a traced request.
func (rt *Router) placementSpan(tb *traceBuilder, pstart time.Time, kept int) {
	tb.span("placement", trace.TierRouter, trace.NoShard, pstart, "", map[string]string{
		"shards": strconv.Itoa(kept),
		"pruned": strconv.Itoa(len(rt.cfg.Backends) - kept),
	}, nil)
}

// fanoutAttrs labels the fan-out span with its outcome.
func fanoutAttrs(shards int, earlyExit bool, failed []int) map[string]string {
	attrs := map[string]string{
		"shards":     strconv.Itoa(shards),
		"early_exit": strconv.FormatBool(earlyExit),
	}
	if len(failed) > 0 {
		attrs["failed"] = fmt.Sprint(failed)
	}
	return attrs
}

// shardErrString condenses a shard-call error for a span. Cancellation
// of the scatter-gather is the one non-failure: the answer was simply
// no longer needed.
func shardErrString(err error) string {
	if errors.Is(err, context.Canceled) {
		return "canceled"
	}
	return err.Error()
}

// queryShard puts one /v1/query body to shard sid and records the call
// in ctx's trace.
func (rt *Router) queryShard(ctx context.Context, sid int, body []byte) shardResult {
	tb := traceFrom(ctx)
	cstart := time.Now()
	data, err := rt.callShard(ctx, sid, "/v1/query", body)
	var reply httpjson.ServerQueryReply
	errStr := ""
	if err != nil {
		errStr = shardErrString(err)
	} else if uerr := json.Unmarshal(data, &reply); uerr != nil {
		err, errStr = fmt.Errorf("shard %d: bad reply: %w", sid, uerr), "bad reply"
	}
	if tb != nil {
		attrs := map[string]string{"backend": rt.cfg.Backends[sid]}
		if err == nil {
			attrs["reachable"] = strconv.FormatBool(reply.Reachable)
		}
		tb.span("shard_call", trace.TierShard, sid, cstart, errStr, attrs, reply.Stats)
	}
	return shardResult{sid: sid, reachable: reply.Reachable, err: err}
}

// batchShard puts the subset of req's queries that shard sid may hold
// a venue for to it as one /v1/batch.
func (rt *Router) batchShard(ctx context.Context, sid int, req *httpjson.BatchRequest, subset []int) shardResult {
	tb := traceFrom(ctx)
	cstart := time.Now()
	sub := httpjson.BatchRequest{Queries: make([]httpjson.QueryRequest, len(subset))}
	for j, i := range subset {
		sub.Queries[j] = req.Queries[i]
	}
	var reply httpjson.ServerBatchReply
	errStr := ""
	body, err := json.Marshal(sub)
	if err != nil {
		errStr = err.Error()
	} else if body, err = rt.callShard(ctx, sid, "/v1/batch", body); err != nil {
		errStr = shardErrString(err)
	} else if uerr := json.Unmarshal(body, &reply); uerr != nil {
		err, errStr = fmt.Errorf("shard %d: bad reply: %w", sid, uerr), "bad reply"
	} else if len(reply.Results) != len(subset) {
		err, errStr = fmt.Errorf("shard %d: %d results for %d queries", sid, len(reply.Results), len(subset)), "length mismatch"
	}
	if tb != nil {
		tb.span("shard_call", trace.TierShard, sid, cstart, errStr, map[string]string{
			"backend": rt.cfg.Backends[sid],
			"queries": strconv.Itoa(len(subset)),
		}, nil)
	}
	return shardResult{sid: sid, answers: reply.Results, err: err}
}

// hungUp answers a request whose client went away while its shards
// were being asked: the calls that ended with the client are canceled,
// not failed, so the shards are not blamed with a 502. A scatter an
// early positive settled is exact, and is answered as one.
func (rt *Router) hungUp(w http.ResponseWriter, r *http.Request, early bool, what string) bool {
	err := r.Context().Err()
	if err == nil || early {
		return false
	}
	rt.front.WriteError(w, httpjson.CancelStatus(err), "%s: %v", what, err)
	return true
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	tb := traceFrom(r.Context())
	sc := httpjson.Get()
	defer sc.Release()
	var req httpjson.QueryRequest
	if !rt.front.Decode(w, r, sc, &req) {
		return
	}
	if req.Vertex < 0 || req.Vertex >= rt.cfg.Map.Vertices {
		rt.front.WriteError(w, http.StatusBadRequest, "vertex %d out of range [0,%d)", req.Vertex, rt.cfg.Map.Vertices)
		return
	}
	start := time.Now()
	var few [8]int // keeps the usual shard list off the heap
	shards := rt.relevantShards(few[:0], regionRect(req.Region))
	rt.placementSpan(tb, start, len(shards))
	if len(shards) == 0 {
		writeQueryReply(w, sc, httpjson.RouterQueryReply{
			Reachable: false, Micros: time.Since(start).Microseconds(),
			TraceID: tb.traceID(),
		})
		return
	}
	// Every shard gets the bytes the client sent: Decode has validated
	// them, and a shard decodes them by the same rule. They are copied
	// out of the pooled scratch once, because a shard call can outlive
	// it — a straggler outlives the handler, and the transport may still
	// be reading a request body after a canceled call has returned.
	body := bytes.Clone(sc.Body())
	fstart := time.Now()
	var (
		reachable, early bool
		failed           []int
		sct              *scatter
	)
	if len(shards) == 1 {
		// One shard holds every venue the region can meet: its answer is
		// the answer, so there is nothing to race or merge.
		res := rt.queryShard(r.Context(), shards[0], body)
		reachable = res.reachable
		if res.err != nil {
			failed = []int{res.sid}
		}
	} else {
		sct = rt.newScatter(r, len(shards))
		for _, sid := range shards {
			sid := sid
			sct.launch(func(ctx context.Context) shardResult { return rt.queryShard(ctx, sid, body) })
		}
		// The first positive settles the query exactly.
		failed, early = sct.gather(func(res shardResult) bool {
			reachable = res.reachable
			return reachable
		})
	}
	if early {
		rt.mEarlyExit.Inc()
	}
	if tb != nil {
		tb.span("fanout", trace.TierRouter, trace.NoShard, fstart, "",
			fanoutAttrs(len(shards), early, failed), nil)
	}
	if rt.hungUp(w, r, early, "query") {
		return
	}
	if !reachable && len(failed) > 0 {
		rt.front.WriteError(w, http.StatusBadGateway, "shards %v unavailable and no live shard answered positively", failed)
		return
	}
	writeQueryReply(w, sc, httpjson.RouterQueryReply{
		Reachable: reachable, Shards: len(shards),
		Micros:  time.Since(start).Microseconds(),
		TraceID: tb.traceID(),
	})
	if early {
		sct.abandon(tb)
	}
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req httpjson.BatchRequest
	if !rt.front.Decode(w, r, nil, &req) {
		return
	}
	if err := req.Check(rt.cfg.Map.Vertices); err != nil {
		rt.front.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tb := traceFrom(r.Context())
	start := time.Now()
	subsets, active := rt.batchSubsets(req.Queries)
	rt.placementSpan(tb, start, active)
	results := make([]bool, len(req.Queries))
	if active == 0 {
		rt.front.WriteJSON(w, http.StatusOK, httpjson.RouterBatchReply{
			Results: results, Micros: time.Since(start).Microseconds(),
			TraceID: tb.traceID(),
		})
		return
	}
	fstart := time.Now()
	sct := rt.newScatter(r, active)
	for sid, subset := range subsets {
		if len(subset) == 0 {
			continue
		}
		sid, subset := sid, subset
		sct.launch(func(ctx context.Context) shardResult { return rt.batchShard(ctx, sid, &req, subset) })
	}
	// Once every query is positive the outstanding shards cannot change
	// anything.
	positives := 0
	failed, early := sct.gather(func(res shardResult) bool {
		for j, i := range subsets[res.sid] {
			if res.answers[j] && !results[i] {
				results[i] = true
				positives++
			}
		}
		return positives == len(results)
	})
	if early {
		rt.mEarlyExit.Inc()
	}
	if tb != nil {
		tb.span("fanout", trace.TierRouter, trace.NoShard, fstart, "",
			fanoutAttrs(active, early, failed), nil)
	}
	if rt.hungUp(w, r, early, "batch") {
		return
	}
	// A failed shard only makes the answer ambiguous when one of its
	// queries is still negative; positives from live shards are exact
	// regardless of what is down.
	ambiguous := false
	for _, sid := range failed {
		for _, i := range subsets[sid] {
			if !results[i] {
				ambiguous = true
				break
			}
		}
		if ambiguous {
			break
		}
	}
	if ambiguous {
		rt.front.WriteError(w, http.StatusBadGateway, "shards %v unavailable and some of their queries have no positive from a live shard", failed)
		return
	}
	rt.front.WriteJSON(w, http.StatusOK, httpjson.RouterBatchReply{
		Results: results, Shards: active,
		Micros:  time.Since(start).Microseconds(),
		TraceID: tb.traceID(),
	})
	if early {
		sct.abandon(tb)
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := httpjson.RouterHealthz{
		Status:   "ok",
		Shards:   rt.cfg.Map.NumShards(),
		Backends: len(rt.cfg.Backends),
		Vertices: rt.cfg.Map.Vertices,
		Space:    rt.cfg.Map.Space,
		Strategy: rt.cfg.Map.Strategy,
	}
	for sid, h := range rt.health {
		if h.isDown() {
			resp.Down = append(resp.Down, sid)
		}
	}
	rt.front.WriteJSON(w, http.StatusOK, resp)
}
