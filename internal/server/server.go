// Package server implements the rrserve HTTP serving subsystem: a
// long-lived process that holds a RangeReach index hot and answers
// queries over an HTTP/JSON API.
//
// Endpoints:
//
//	POST /v1/query   one RangeReach query
//	POST /v1/batch   a batch, fanned out over RangeReachBatch
//	POST /v1/update  add_user / add_venue / add_edge / del_edge / move_venue (dynamic mode)
//	GET  /v1/explain one query with its execution profile (EXPLAIN)
//	GET  /healthz    liveness + mode + index info
//	GET  /metrics    Prometheus text exposition
//
// Static indexes serve reads lock-free — every static Index is safe for
// concurrent queries by construction. Dynamic mode uses a single-writer
// snapshot-swap design (see updater): mutations serialize onto one
// goroutine and publish immutable DynamicSnapshots through an atomic
// pointer, so readers never block on writers. A sharded LRU cache memoizes
// single-query answers keyed on (vertex, region) and stamped with the
// snapshot generation; a swap invalidates the whole cache by generation
// mismatch without touching entries.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rangereach "repro"
	"repro/internal/httpjson"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Config assembles a Server. Exactly one of Index (static mode) or
// Dynamic (dynamic mode) must be set.
type Config struct {
	// Index serves static mode: lock-free concurrent reads, updates
	// rejected.
	Index *rangereach.Index
	// Dynamic serves dynamic mode through the snapshot-swap updater.
	Dynamic *rangereach.DynamicIndex
	// CheckPublish makes the dynamic updater deep-validate every
	// snapshot before publishing it (rrserve -check-publish). A snapshot
	// that fails validation is never published: readers keep the last
	// good one, the batch that produced it is failed with 500, and
	// rr_publish_check_failures_total counts the event. Costs one full
	// validation pass per publish; intended for soak tests and
	// correctness-critical deployments.
	CheckPublish bool
	// CacheEntries sizes the result cache (default 4096; negative
	// disables caching).
	CacheEntries int
	// QueryTimeout bounds each request (default 2s).
	QueryTimeout time.Duration
	// Parallelism is the static batch fan-out (0 = GOMAXPROCS).
	Parallelism int
	// MaxBatch caps the queries accepted per batch request (default
	// 8192).
	MaxBatch int
	// MaxBodyBytes caps request bodies; oversized bodies are refused
	// with 413 before any JSON decoding happens (default 8 MiB,
	// negative disables the cap).
	MaxBodyBytes int64
	// Logger receives one structured record per request (request id,
	// method, path, status, latency, plus per-endpoint attributes). Nil
	// disables request logging.
	Logger *slog.Logger
	// SlowQuery elevates requests at least this slow to a Warn-level
	// "slow request" record, making them greppable without lowering the
	// log level. Zero disables the elevation.
	SlowQuery time.Duration
	// TraceSample traces every Nth engine-evaluated query (1 = all)
	// through the Explain path, feeding the rr_stage_seconds histograms
	// and attaching the profile to the request log. Zero disables
	// sampling; cache hits are never traced (no engine work to profile).
	TraceSample int
	// ShardID labels this process with its shard id when it serves one
	// partition of a cluster (rrserve -shard). It tags the request log,
	// the slow-query warnings and a shard-labeled in-flight gauge so
	// single-tier logs and metrics join the router's cluster view.
	// Empty means standalone.
	ShardID string
}

// Server answers RangeReach queries over HTTP. Create with New, expose
// via Handler, and Close when done to drain the handlers and stop the
// update goroutine.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *queryCache
	dyn   *updater // nil in static mode

	reg         *metrics.Registry
	mReqQuery   *metrics.Counter
	mReqBatch   *metrics.Counter
	mReqUpdate  *metrics.Counter
	mReqExplain *metrics.Counter
	mQueries    *metrics.Counter
	mUpdates    *metrics.Counter
	mUpdErrs    *metrics.Counter
	mReqErrs    *metrics.Counter
	mHits       *metrics.Counter
	mMisses     *metrics.Counter
	mSwaps      *metrics.Counter
	mTraced     *metrics.Counter
	mInflight   *metrics.Gauge
	mLatency    *metrics.Histogram
	mStages     map[string]*metrics.Histogram
	mSnapBuild  *metrics.Histogram
	mCheckFails *metrics.Counter

	reqID    atomic.Uint64 // request ids for log correlation
	traceTik atomic.Uint64 // trace-sampling clock

	// drain is held shared by every instrumented handler for its whole
	// run, and exclusively by Close to set closed: Close returns only
	// once no handler is inside the index, and a handler that enters
	// afterwards sees closed and never touches it.
	drain  sync.RWMutex
	closed bool
}

// New builds a Server over the given index.
func New(cfg Config) (*Server, error) {
	if (cfg.Index == nil) == (cfg.Dynamic == nil) {
		return nil, errors.New("server: exactly one of Config.Index and Config.Dynamic must be set")
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 2 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8192
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	s := &Server{cfg: cfg, reg: metrics.NewRegistry()}
	s.mReqQuery = s.reg.Counter(`rr_requests_total{endpoint="query"}`, "HTTP requests by endpoint.")
	s.mReqBatch = s.reg.Counter(`rr_requests_total{endpoint="batch"}`, "HTTP requests by endpoint.")
	s.mReqUpdate = s.reg.Counter(`rr_requests_total{endpoint="update"}`, "HTTP requests by endpoint.")
	s.mQueries = s.reg.Counter("rr_queries_total", "RangeReach queries evaluated, including batch members.")
	s.mUpdates = s.reg.Counter("rr_updates_total", "Accepted network updates.")
	s.mUpdErrs = s.reg.Counter("rr_update_errors_total", "Rejected network updates (bad input, missing edges).")
	s.mReqErrs = s.reg.Counter("rr_request_errors_total", "Requests answered with a non-2xx status.")
	s.mHits = s.reg.Counter("rr_cache_hits_total", "Result cache hits.")
	s.mMisses = s.reg.Counter("rr_cache_misses_total", "Result cache misses.")
	s.mSwaps = s.reg.Counter("rr_snapshot_swaps_total", "Snapshots published by the dynamic updater.")
	s.mReqExplain = s.reg.Counter(`rr_requests_total{endpoint="explain"}`, "HTTP requests by endpoint.")
	s.mTraced = s.reg.Counter("rr_traced_queries_total", "Queries executed through the tracing path.")
	s.mInflight = s.reg.Gauge("rr_inflight_requests", "Requests currently being served.")
	s.mLatency = s.reg.Histogram("rr_query_seconds", "End-to-end latency of query and batch requests.", nil)
	s.mStages = make(map[string]*metrics.Histogram, trace.NumStages)
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		name := st.String()
		s.mStages[name] = s.reg.Histogram(
			fmt.Sprintf("rr_stage_seconds{stage=%q}", name),
			"Engine time per pipeline stage, over traced queries.", nil)
	}
	if cfg.Index != nil {
		// Build-phase durations are known at construction; publish them as
		// one-observation histograms so dashboards see where offline time
		// went (and, in dynamic mode below, how snapshot rebuilds trend).
		for _, ph := range cfg.Index.Stats().Phases {
			h := s.reg.Histogram(
				fmt.Sprintf("rr_build_seconds{phase=%q}", ph.Name),
				"Index build time attributed to each pipeline phase.", nil)
			h.Observe(ph.Duration.Seconds())
		}
	}
	s.reg.GaugeFunc("go_goroutines", "Number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.GaugeFunc("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 { var m runtime.MemStats; runtime.ReadMemStats(&m); return float64(m.HeapAlloc) })
	s.reg.GaugeFunc("go_memstats_heap_objects", "Number of allocated heap objects.",
		func() float64 { var m runtime.MemStats; runtime.ReadMemStats(&m); return float64(m.HeapObjects) })
	s.reg.GaugeFunc("go_memstats_gc_cycles", "Completed GC cycles.",
		func() float64 { var m runtime.MemStats; runtime.ReadMemStats(&m); return float64(m.NumGC) })

	if cfg.CacheEntries >= 0 {
		n := cfg.CacheEntries
		if n == 0 {
			n = 4096
		}
		s.cache = newQueryCache(n)
		// The ratio the hit/miss counters only yield after PromQL math,
		// precomputed at scrape time: hits / lookups, 0 before any lookup.
		s.reg.GaugeFunc("rr_cache_hit_ratio", "Result cache hits as a fraction of lookups.",
			func() float64 {
				hits, misses := float64(s.mHits.Value()), float64(s.mMisses.Value())
				if hits+misses == 0 {
					return 0
				}
				return hits / (hits + misses)
			})
	}
	if cfg.ShardID != "" {
		// A shard-labeled mirror of the in-flight gauge, so the federated
		// cluster view can attribute load per shard without label rewrites.
		s.reg.GaugeFunc(
			fmt.Sprintf("rr_shard_inflight{shard=%q}", cfg.ShardID),
			"Requests currently in flight on this shard.",
			func() float64 { return float64(s.mInflight.Value()) })
	}
	if cfg.Dynamic != nil {
		s.mSnapBuild = s.reg.Histogram(
			`rr_build_seconds{phase="snapshot"}`,
			"Index build time attributed to each pipeline phase.", nil)
		s.mCheckFails = s.reg.Counter("rr_publish_check_failures_total",
			"Snapshots rejected by publish-time validation (-check-publish).")
		s.dyn = newUpdater(cfg.Dynamic, s.mSwaps, s.mSnapBuild, cfg.CheckPublish, s.mCheckFails)
		// The generation advances monotonically with every published
		// snapshot; rrload's churn mode and the router's cluster view
		// watch it to confirm updates are flowing.
		s.reg.GaugeFunc("rr_generation", "Generation of the currently published snapshot.",
			func() float64 { return float64(s.dyn.current().gen) })
		// What a query on the published snapshot pays for beyond a static
		// index: the overlay it tests, the tombstones it filters, and how
		// far the update stream has fragmented the interval labels.
		incrGauge := func(name, help string, of func(rangereach.UpdateStats) int) {
			s.reg.GaugeFunc(name, help, func() float64 { return float64(of(s.dyn.current().stats)) })
		}
		incrGauge("rr_incr_overlay_entries", "Venue entries kept beside the base tiles, bucketed by grid cell; a query that misses the base tests those of the cells it meets.",
			func(st rangereach.UpdateStats) int { return st.OverlayLen })
		incrGauge("rr_incr_tombstones", "Base tile entries superseded by an overlay entry.",
			func(st rangereach.UpdateStats) int { return st.StaleLen })
		incrGauge("rr_incr_live_components", "Strongly connected components of the current graph.",
			func(st rangereach.UpdateStats) int { return st.LiveComps })
		incrGauge("rr_incr_max_label_intervals", "Interval count of the most fragmented reachability label.",
			func(st rangereach.UpdateStats) int { return st.MaxLabelIntervals })
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.instrument(s.mReqQuery, s.handleQuery))
	s.mux.HandleFunc("POST /v1/batch", s.instrument(s.mReqBatch, s.handleBatch))
	s.mux.HandleFunc("POST /v1/update", s.instrument(s.mReqUpdate, s.handleUpdate))
	s.mux.HandleFunc("GET /v1/explain", s.instrument(s.mReqExplain, s.handleExplain))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server: it waits until no query, batch, update or
// explain handler is running, and from then on such a request is
// answered 503 without touching the index. Then it stops the dynamic
// updater, failing queued updates with errClosed. Once Close returns,
// the caller may close the index — unmapping an OpenMapped index under
// a running handler would fault — however the HTTP listener was shut.
func (s *Server) Close() {
	s.drain.Lock()
	s.closed = true
	s.drain.Unlock()
	if s.dyn != nil {
		s.dyn.close()
	}
}

// Metrics exposes the registry (for embedding rrserve elsewhere).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// statusWriter captures the response status for the request log and
// carries handler-attached log attributes (a handler runs on one
// goroutine, so plain appends are safe).
type statusWriter struct {
	http.ResponseWriter
	status int
	attrs  []slog.Attr
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// annotate attaches attributes to the request's log record; a no-op
// outside the instrument middleware (e.g. under httptest direct calls).
func annotate(w http.ResponseWriter, attrs ...slog.Attr) {
	if sw, ok := w.(*statusWriter); ok {
		sw.attrs = append(sw.attrs, attrs...)
	}
}

// instrument wraps a handler with the drain (see Close), the request
// counter, the in-flight gauge, the latency histogram, the per-request
// timeout context, and the structured request log.
func (s *Server) instrument(reqs *metrics.Counter, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Enter first, then look at the mark: Close sets it only while no
		// handler is inside, so a handler that sees it clear runs to the
		// end before Close can return.
		s.drain.RLock()
		defer s.drain.RUnlock()
		if s.closed {
			s.writeError(w, http.StatusServiceUnavailable, "%v", errClosed)
			return
		}
		reqs.Inc()
		s.mInflight.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
		h(sw, r.WithContext(ctx))
		cancel()
		elapsed := time.Since(start)
		s.mLatency.Observe(elapsed.Seconds())
		s.mInflight.Dec()
		s.logRequest(r, sw, elapsed)
	}
}

// logRequest emits one record per request. Requests at least SlowQuery
// slow are elevated to Warn as "slow request" so they stand out of an
// Info-level stream without a separate sink.
func (s *Server) logRequest(r *http.Request, sw *statusWriter, elapsed time.Duration) {
	if s.cfg.Logger == nil {
		return
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	level, msg := slog.LevelInfo, "request"
	if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
		level, msg = slog.LevelWarn, "slow request"
	}
	if !s.cfg.Logger.Enabled(context.Background(), level) {
		return
	}
	attrs := make([]slog.Attr, 0, 7+len(sw.attrs))
	attrs = append(attrs,
		slog.Uint64("req", s.reqID.Add(1)),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("elapsed", elapsed),
	)
	// The cluster-correlation fields: the shard this process serves and
	// the distributed trace id the router (or client) stamped on the
	// request, so a slow-query WARN greps straight to its cluster trace.
	if s.cfg.ShardID != "" {
		attrs = append(attrs, slog.String("shard", s.cfg.ShardID))
	}
	if id, _, ok := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader)); ok {
		attrs = append(attrs, slog.String("trace_id", id))
	}
	attrs = append(attrs, sw.attrs...)
	s.cfg.Logger.LogAttrs(context.Background(), level, msg, attrs...)
}

// shouldTrace implements the sampling clock: true for every
// TraceSample-th engine evaluation.
func (s *Server) shouldTrace() bool {
	n := s.cfg.TraceSample
	return n > 0 && s.traceTik.Add(1)%uint64(n) == 0
}

// observeStages feeds a traced query's profile into the per-stage
// latency histograms.
func (s *Server) observeStages(qs rangereach.QueryStats) {
	s.mTraced.Inc()
	for _, st := range qs.Stages {
		if h, ok := s.mStages[st.Stage]; ok {
			h.Observe(st.Duration.Seconds())
		}
	}
}

// ---- wire types ----

// queryRequest is one RangeReach query: a vertex and a region given as
// [xmin, ymin, xmax, ymax] (corners in any order).
type queryRequest struct {
	Vertex int        `json:"vertex"`
	Region [4]float64 `json:"region"`
}

type queryResponse struct {
	Reachable bool   `json:"reachable"`
	Cached    bool   `json:"cached"`
	Gen       uint64 `json:"gen"`
	Micros    int64  `json:"micros"`
	// Shard echoes Config.ShardID on traced responses so the router can
	// attribute the stats without trusting its own placement view.
	Shard string `json:"shard,omitempty"`
	// TraceID echoes the incoming traceparent's trace id; set only on
	// traced requests.
	TraceID string `json:"trace_id,omitempty"`
	// Stats is the query's execution profile; present only when the
	// request carried a traceparent header (the distributed-trace path).
	Stats *rangereach.QueryStats `json:"stats,omitempty"`
}

type batchRequest struct {
	Queries     []queryRequest `json:"queries"`
	Parallelism int            `json:"parallelism"`
}

type batchResponse struct {
	Results []bool `json:"results"`
	Gen     uint64 `json:"gen"`
	Micros  int64  `json:"micros"`
}

type updateRequest struct {
	Op     string  `json:"op"` // add_user | add_venue | add_edge | del_edge | move_venue
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	Vertex int     `json:"vertex"` // move_venue: the venue to relocate
}

type updateResponse struct {
	// ID is the new vertex id for add_user/add_venue; absent for edges.
	ID  *int   `json:"id,omitempty"`
	Gen uint64 `json:"gen"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if status >= 400 {
		s.mReqErrs.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A write error here means the client went away; the status line is
	// already committed, so there is nothing left to report.
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON request body under the configured size cap,
// answering the error response itself on failure: 413 for oversized
// bodies (MaxBytesReader poisons the connection anyway, so the precise
// status matters to the client), 400 for anything but one JSON value.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if status, err := httpjson.Decode(w, r, s.cfg.MaxBodyBytes, v); err != nil {
		s.writeError(w, status, "%v", err)
		return false
	}
	return true
}

// appendQueryReply appends an untraced resp — the four scalars; Shard,
// TraceID and Stats ride on traced replies only, which stay on
// encoding/json — as encoding/json encodes it, trailing newline
// included.
func appendQueryReply(b []byte, resp queryResponse) []byte {
	b = append(b, `{"reachable":`...)
	b = strconv.AppendBool(b, resp.Reachable)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, resp.Cached)
	b = append(b, `,"gen":`...)
	b = strconv.AppendUint(b, resp.Gen, 10)
	b = append(b, `,"micros":`...)
	b = strconv.AppendInt(b, resp.Micros, 10)
	return append(b, "}\n"...)
}

// writeQueryReply answers a /v1/query with resp.
func (s *Server) writeQueryReply(w http.ResponseWriter, sc *httpjson.Scratch, resp queryResponse) {
	if resp.Stats != nil || resp.Shard != "" || resp.TraceID != "" {
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	sc.Out = appendQueryReply(sc.Out[:0], resp)
	sc.Reply(w, http.StatusOK)
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response was written. The status never
// reaches that client; it exists for the request log and error metrics
// to distinguish hang-ups from server-side timeouts (504).
const statusClientClosedRequest = 499

// cancelStatus maps a context error to the response status.
func cancelStatus(err error) int {
	if errors.Is(err, context.Canceled) {
		return statusClientClosedRequest
	}
	return http.StatusGatewayTimeout
}

// view resolves the read path once per request: the engine to query,
// the vertex-count bound, and the cache generation it belongs to. In
// dynamic mode the whole request is served from one snapshot, so even a
// batch sees a consistent point-in-time state.
type view struct {
	static *rangereach.Index
	snap   *rangereach.DynamicSnapshot
	gen    uint64
}

func (s *Server) currentView() view {
	if s.dyn != nil {
		p := s.dyn.current()
		return view{snap: p.snap, gen: p.gen}
	}
	return view{static: s.cfg.Index}
}

func (v view) numVertices() int {
	if v.snap != nil {
		return v.snap.NumVertices()
	}
	return v.static.Network().NumVertices()
}

func (v view) rangeReach(vertex int, r rangereach.Rect) bool {
	if v.snap != nil {
		return v.snap.RangeReach(vertex, r)
	}
	return v.static.RangeReach(vertex, r)
}

func (v view) explain(vertex int, r rangereach.Rect) (bool, rangereach.QueryStats) {
	if v.snap != nil {
		return v.snap.Explain(vertex, r)
	}
	return v.static.Explain(vertex, r)
}

// methodName is the engine name for cache-hit stats, which never reach
// an engine.
func (s *Server) methodName() string {
	if s.dyn != nil {
		return "3DReach-Dynamic"
	}
	return s.cfg.Index.Method().String()
}

// ---- handlers ----

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sc := httpjson.Get()
	defer sc.Release()
	var req queryRequest
	if status, err := sc.Decode(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		s.writeError(w, status, "%v", err)
		return
	}
	start := time.Now()
	v := s.currentView()
	if req.Vertex < 0 || req.Vertex >= v.numVertices() {
		s.writeError(w, http.StatusBadRequest, "vertex %d out of range [0,%d)", req.Vertex, v.numVertices())
		return
	}
	// A valid traceparent (stamped by rrrouter's scatter-gather or a
	// -trace client) makes this request part of a distributed trace: the
	// engine runs through the Explain path and the profile rides back in
	// the response for the router to stitch.
	traceID, _, traced := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
	rect := rangereach.NewRect(req.Region[0], req.Region[1], req.Region[2], req.Region[3])
	key := cacheKey{vertex: req.Vertex, region: rect}
	if s.cache != nil {
		if val, ok := s.cache.Get(key, v.gen); ok {
			s.mHits.Inc()
			resp := queryResponse{
				Reachable: val, Cached: true, Gen: v.gen,
				Micros: time.Since(start).Microseconds(),
			}
			if traced {
				resp.Shard, resp.TraceID = s.cfg.ShardID, traceID
				resp.Stats = &rangereach.QueryStats{Method: s.methodName(), CacheHit: true}
			}
			s.writeJSON(w, http.StatusOK, resp)
			return
		}
		s.mMisses.Inc()
	}
	// A single evaluation is microseconds, so the useful cancellation
	// point is before it: a request that died while queued (client gone,
	// deadline passed) should not reach the engine at all.
	if err := r.Context().Err(); err != nil {
		s.writeError(w, cancelStatus(err), "query: %v", err)
		return
	}
	var ans bool
	var stats *rangereach.QueryStats
	if traced || s.shouldTrace() {
		var qs rangereach.QueryStats
		ans, qs = v.explain(req.Vertex, rect)
		s.observeStages(qs)
		annotate(w, slog.String("trace", qs.String()))
		if traced {
			stats = &qs
		}
	} else {
		ans = v.rangeReach(req.Vertex, rect)
	}
	s.mQueries.Inc()
	if s.cache != nil {
		s.cache.Put(key, v.gen, ans)
	}
	annotate(w, slog.Int("vertex", req.Vertex), slog.Bool("reachable", ans))
	resp := queryResponse{
		Reachable: ans, Gen: v.gen,
		Micros: time.Since(start).Microseconds(),
	}
	if traced {
		resp.Shard, resp.TraceID, resp.Stats = s.cfg.ShardID, traceID, stats
	}
	s.writeQueryReply(w, sc, resp)
}

type explainResponse struct {
	Reachable bool                  `json:"reachable"`
	Gen       uint64                `json:"gen"`
	Stats     rangereach.QueryStats `json:"stats"`
}

// handleExplain answers GET /v1/explain?vertex=V&region=xmin,ymin,xmax,ymax
// with the query answer plus its execution profile. The result cache is
// consulted like a normal query: a hit reports CacheHit with zero work
// counters, since the engine never ran.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	vertex, err := strconv.Atoi(q.Get("vertex"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad vertex %q: %v", q.Get("vertex"), err)
		return
	}
	parts := strings.Split(q.Get("region"), ",")
	if len(parts) != 4 {
		s.writeError(w, http.StatusBadRequest, "bad region %q: want xmin,ymin,xmax,ymax", q.Get("region"))
		return
	}
	var coords [4]float64
	for i, p := range parts {
		if coords[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad region %q: %v", q.Get("region"), err)
			return
		}
	}
	v := s.currentView()
	if vertex < 0 || vertex >= v.numVertices() {
		s.writeError(w, http.StatusBadRequest, "vertex %d out of range [0,%d)", vertex, v.numVertices())
		return
	}
	rect := rangereach.NewRect(coords[0], coords[1], coords[2], coords[3])
	key := cacheKey{vertex: vertex, region: rect}
	if s.cache != nil {
		if val, ok := s.cache.Get(key, v.gen); ok {
			s.mHits.Inc()
			annotate(w, slog.Bool("cached", true))
			s.writeJSON(w, http.StatusOK, explainResponse{
				Reachable: val, Gen: v.gen,
				Stats: rangereach.QueryStats{Method: s.methodName(), CacheHit: true},
			})
			return
		}
		s.mMisses.Inc()
	}
	ans, qs := v.explain(vertex, rect)
	s.mQueries.Inc()
	s.observeStages(qs)
	if s.cache != nil {
		s.cache.Put(key, v.gen, ans)
	}
	annotate(w, slog.String("trace", qs.String()))
	s.writeJSON(w, http.StatusOK, explainResponse{Reachable: ans, Gen: v.gen, Stats: qs})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch)
		return
	}
	start := time.Now()
	v := s.currentView()
	n := v.numVertices()
	queries := make([]rangereach.Query, len(req.Queries))
	for i, q := range req.Queries {
		if q.Vertex < 0 || q.Vertex >= n {
			s.writeError(w, http.StatusBadRequest, "query %d: vertex %d out of range [0,%d)", i, q.Vertex, n)
			return
		}
		queries[i] = rangereach.Query{
			Vertex: q.Vertex,
			Region: rangereach.NewRect(q.Region[0], q.Region[1], q.Region[2], q.Region[3]),
		}
	}
	results, err := s.evalBatch(r.Context(), v, queries, req.Parallelism)
	if err != nil {
		s.writeError(w, cancelStatus(err), "batch: %v", err)
		return
	}
	s.mQueries.Add(int64(len(queries)))
	s.writeJSON(w, http.StatusOK, batchResponse{
		Results: results, Gen: v.gen,
		Micros: time.Since(start).Microseconds(),
	})
}

// evalBatch answers the batch against the resolved view. Both modes
// thread the request context into the evaluation itself, so a client
// disconnect or deadline stops the in-flight work (workers exit at the
// next chunk boundary) instead of abandoning it to finish unobserved.
func (s *Server) evalBatch(ctx context.Context, v view, queries []rangereach.Query, parallelism int) ([]bool, error) {
	if v.static != nil {
		if parallelism <= 0 {
			parallelism = s.cfg.Parallelism
		}
		return v.static.RangeReachBatchContext(ctx, queries, parallelism)
	}
	out := make([]bool, len(queries))
	const chunk = 64
	for lo := 0; lo < len(queries); lo += chunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		for i := lo; i < hi; i++ {
			out[i] = v.snap.RangeReach(queries[i].Vertex, queries[i].Region)
		}
	}
	return out, nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.dyn == nil {
		s.writeError(w, http.StatusNotImplemented, "updates require dynamic mode (rrserve -dynamic)")
		return
	}
	var req updateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	var op updateOp
	switch req.Op {
	case "add_user":
		op = updateOp{kind: opAddUser}
	case "add_venue":
		op = updateOp{kind: opAddVenue, x: req.X, y: req.Y}
	case "add_edge":
		op = updateOp{kind: opAddEdge, from: req.From, to: req.To}
	case "del_edge":
		op = updateOp{kind: opDelEdge, from: req.From, to: req.To}
	case "move_venue":
		op = updateOp{kind: opMoveVenue, vertex: req.Vertex, x: req.X, y: req.Y}
	default:
		s.writeError(w, http.StatusBadRequest,
			"unknown op %q (want add_user, add_venue, add_edge, del_edge or move_venue)", req.Op)
		return
	}
	res := s.dyn.submit(r.Context(), op)
	if res.err != nil {
		s.mUpdErrs.Inc()
		status := http.StatusConflict // out-of-range / missing-edge rejections
		switch {
		case errors.Is(res.err, errClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(res.err, errPublishCheck):
			status = http.StatusInternalServerError
		case errors.Is(res.err, context.DeadlineExceeded), errors.Is(res.err, context.Canceled):
			status = http.StatusGatewayTimeout
		}
		s.writeError(w, status, "%v", res.err)
		return
	}
	s.mUpdates.Inc()
	resp := updateResponse{Gen: s.dyn.current().gen}
	if op.kind == opAddUser || op.kind == opAddVenue {
		resp.ID = &res.id
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// healthzResponse reports liveness plus basic index facts.
type healthzResponse struct {
	Status   string `json:"status"`
	Mode     string `json:"mode"`
	Method   string `json:"method"`
	Vertices int    `json:"vertices"`
	Gen      uint64 `json:"gen"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := s.currentView()
	resp := healthzResponse{Status: "ok", Vertices: v.numVertices(), Gen: v.gen}
	if s.dyn != nil {
		resp.Mode, resp.Method = "dynamic", "3DReach-Dynamic"
	} else {
		resp.Mode, resp.Method = "static", s.cfg.Index.Method().String()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A scrape aborted mid-write is the scraper's problem; the next one
	// gets a fresh snapshot.
	_ = s.reg.WritePrometheus(w)
}
