// Package server implements the rrserve HTTP serving subsystem: a
// long-lived process that holds a RangeReach index hot and answers
// queries over an HTTP/JSON API.
//
// Endpoints:
//
//	POST /v1/query   one RangeReach query
//	POST /v1/batch   a batch of at most httpjson.MaxBatch, fanned out over RangeReachBatchContext
//	POST /v1/update  add_user / add_venue / add_edge / del_edge / move_venue (dynamic mode)
//	GET  /v1/explain one query with its execution profile (EXPLAIN)
//	GET  /healthz    liveness + mode + index info
//	GET  /metrics    Prometheus text exposition
//
// The bodies are the httpjson wire types (Server* for the replies),
// and the query, batch, update and explain handlers run behind an
// httpjson.Front, which rrrouter shares: the request counters, the
// latency histogram, the request log, the per-request QueryTimeout and
// the drain Close waits on. A request whose client has gone is answered
// 499, one past its deadline 504 (httpjson.CancelStatus). /metrics is
// the registry itself; each family it exposes has the reader that
// DESIGN.md §8's census names. A query is traced only when its request
// asks (a traceparent header, or /v1/explain): the profile rides back
// in the reply and lands in the request log.
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
	// ShardID labels this process with its shard id when it serves one
	// partition of a cluster (rrserve -shard). It tags the request log,
	// the slow-query warnings and traced replies, so single-tier logs
	// join the router's cluster traces. Empty means standalone.
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

	// front wraps the query, batch, update and explain handlers. Close
	// closes it: it returns only once no handler is inside the index,
	// and a request that arrives afterwards is answered 503 without
	// touching it.
	front *httpjson.Front

	reg         *metrics.Registry
	mReqQuery   *metrics.Counter
	mReqBatch   *metrics.Counter
	mReqUpdate  *metrics.Counter
	mReqExplain *metrics.Counter
	mQueries    *metrics.Counter
	mHits       *metrics.Counter
	mMisses     *metrics.Counter
	mInflight   *metrics.Gauge
	mSnapBuild  *metrics.Histogram
	mCheckFails *metrics.Counter
}

// New builds a Server over the given index.
func New(cfg Config) (*Server, error) {
	if (cfg.Index == nil) == (cfg.Dynamic == nil) {
		return nil, errors.New("server: exactly one of Config.Index and Config.Dynamic must be set")
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 2 * time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	s := &Server{cfg: cfg, reg: metrics.NewRegistry()}
	s.mReqQuery = s.reg.Counter(`rr_requests_total{endpoint="query"}`, "HTTP requests by endpoint.")
	s.mReqBatch = s.reg.Counter(`rr_requests_total{endpoint="batch"}`, "HTTP requests by endpoint.")
	s.mReqUpdate = s.reg.Counter(`rr_requests_total{endpoint="update"}`, "HTTP requests by endpoint.")
	s.mQueries = s.reg.Counter("rr_queries_total", "RangeReach queries evaluated, including batch members.")
	reqErrs := s.reg.Counter("rr_request_errors_total", "Requests answered with a non-2xx status.")
	s.mHits = s.reg.Counter("rr_cache_hits_total", "Result cache hits.")
	s.mMisses = s.reg.Counter("rr_cache_misses_total", "Result cache misses.")
	s.mReqExplain = s.reg.Counter(`rr_requests_total{endpoint="explain"}`, "HTTP requests by endpoint.")
	s.mInflight = s.reg.Gauge("rr_inflight_requests", "Requests currently being served.")
	latency := s.reg.Histogram("rr_query_seconds", "End-to-end latency of query and batch requests.", nil)
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
	if cfg.Dynamic != nil {
		s.mSnapBuild = s.reg.Histogram(
			`rr_build_seconds{phase="snapshot"}`,
			"Index build time attributed to each pipeline phase.", nil)
		s.mCheckFails = s.reg.Counter("rr_publish_check_failures_total",
			"Snapshots rejected by publish-time validation (-check-publish).")
		s.dyn = newUpdater(cfg.Dynamic, s.mSnapBuild, cfg.CheckPublish, s.mCheckFails)
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
		incrGauge("rr_incr_full_rebuilds", "Full rebuilds the index chose over patching: batches whose patch work passed its budget, and compactions.",
			func(st rangereach.UpdateStats) int { return st.FullRebuilds })
	}

	s.front = &httpjson.Front{
		Inflight: s.mInflight, Latency: latency, Errors: reqErrs,
		MaxBody: cfg.MaxBodyBytes, Logger: cfg.Logger, Slow: cfg.SlowQuery,
		Deadline: cfg.QueryTimeout, Closed: errClosed,
	}
	if cfg.ShardID != "" {
		// The shard joins this process's records to the router's cluster
		// view.
		s.front.LogAttrs = []slog.Attr{slog.String("shard", cfg.ShardID)}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/query", s.front.Wrap("query", s.mReqQuery, s.handleQuery))
	s.mux.HandleFunc("POST /v1/batch", s.front.Wrap("batch", s.mReqBatch, s.handleBatch))
	s.mux.HandleFunc("POST /v1/update", s.front.Wrap("update", s.mReqUpdate, s.handleUpdate))
	s.mux.HandleFunc("GET /v1/explain", s.front.Wrap("explain", s.mReqExplain, s.handleExplain))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.reg)
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
	s.front.Close()
	if s.dyn != nil {
		s.dyn.close()
	}
}

// writeQueryReply answers a /v1/query with resp.
func (s *Server) writeQueryReply(w http.ResponseWriter, sc *httpjson.Scratch, resp httpjson.ServerQueryReply) {
	if resp.Stats != nil || resp.Shard != "" || resp.TraceID != "" {
		s.front.WriteJSON(w, http.StatusOK, resp)
		return
	}
	sc.Out = resp.AppendJSON(sc.Out[:0])
	sc.Reply(w, http.StatusOK)
}

// reader is what a request reads: the static *rangereach.Index, or the
// *rangereach.DynamicSnapshot the updater last published.
type reader interface {
	RangeReach(v int, r rangereach.Rect) bool
	Explain(v int, r rangereach.Rect) (bool, rangereach.QueryStats)
	RangeReachBatchContext(ctx context.Context, queries []rangereach.Query, parallelism int) ([]bool, error)
}

// view is the read path a request resolves once: the reader, its
// vertex count, and the cache generation its answers belong to (0 in
// static mode). In dynamic mode the whole request is served from one
// snapshot, so even a batch sees a consistent point-in-time state.
type view struct {
	reader
	vertices int
	gen      uint64
}

func (s *Server) currentView() view {
	if s.dyn != nil {
		return s.dyn.current().view
	}
	return view{reader: s.cfg.Index, vertices: s.cfg.Index.Network().NumVertices()}
}

// rawStats encodes a query's profile for a reply.
func rawStats(qs rangereach.QueryStats) json.RawMessage {
	b, _ := json.Marshal(qs) // a QueryStats always encodes
	return b
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
	var req httpjson.QueryRequest
	if !s.front.Decode(w, r, sc, &req) {
		return
	}
	start := time.Now()
	v := s.currentView()
	if req.Vertex < 0 || req.Vertex >= v.vertices {
		s.front.WriteError(w, http.StatusBadRequest, "vertex %d out of range [0,%d)", req.Vertex, v.vertices)
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
			resp := httpjson.ServerQueryReply{
				Reachable: val, Cached: true, Gen: v.gen,
				Micros: time.Since(start).Microseconds(),
			}
			if traced {
				resp.Shard, resp.TraceID = s.cfg.ShardID, traceID
				resp.Stats = rawStats(rangereach.QueryStats{Method: s.methodName(), CacheHit: true})
			}
			s.writeQueryReply(w, sc, resp)
			return
		}
		s.mMisses.Inc()
	}
	// A single evaluation is microseconds, so the useful cancellation
	// point is before it: a request that died while queued (client gone,
	// deadline passed) should not reach the engine at all.
	if err := r.Context().Err(); err != nil {
		s.front.WriteError(w, httpjson.CancelStatus(err), "query: %v", err)
		return
	}
	var ans bool
	var stats json.RawMessage
	if traced {
		var qs rangereach.QueryStats
		ans, qs = v.Explain(req.Vertex, rect)
		httpjson.Annotate(w, slog.String("trace", qs.String()))
		stats = rawStats(qs)
	} else {
		ans = v.RangeReach(req.Vertex, rect)
	}
	s.mQueries.Inc()
	if s.cache != nil {
		s.cache.Put(key, v.gen, ans)
	}
	httpjson.Annotate(w, slog.Int("vertex", req.Vertex), slog.Bool("reachable", ans))
	resp := httpjson.ServerQueryReply{
		Reachable: ans, Gen: v.gen,
		Micros: time.Since(start).Microseconds(),
	}
	if traced {
		resp.Shard, resp.TraceID, resp.Stats = s.cfg.ShardID, traceID, stats
	}
	s.writeQueryReply(w, sc, resp)
}

// handleExplain answers GET /v1/explain?vertex=V&region=xmin,ymin,xmax,ymax
// with the query answer plus its execution profile. The result cache is
// consulted like a normal query: a hit reports CacheHit with zero work
// counters, since the engine never ran.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	vertex, err := strconv.Atoi(q.Get("vertex"))
	if err != nil {
		s.front.WriteError(w, http.StatusBadRequest, "bad vertex %q: %v", q.Get("vertex"), err)
		return
	}
	parts := strings.Split(q.Get("region"), ",")
	if len(parts) != 4 {
		s.front.WriteError(w, http.StatusBadRequest, "bad region %q: want xmin,ymin,xmax,ymax", q.Get("region"))
		return
	}
	var coords [4]float64
	for i, p := range parts {
		if coords[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64); err != nil {
			s.front.WriteError(w, http.StatusBadRequest, "bad region %q: %v", q.Get("region"), err)
			return
		}
	}
	v := s.currentView()
	if vertex < 0 || vertex >= v.vertices {
		s.front.WriteError(w, http.StatusBadRequest, "vertex %d out of range [0,%d)", vertex, v.vertices)
		return
	}
	rect := rangereach.NewRect(coords[0], coords[1], coords[2], coords[3])
	key := cacheKey{vertex: vertex, region: rect}
	if s.cache != nil {
		if val, ok := s.cache.Get(key, v.gen); ok {
			s.mHits.Inc()
			httpjson.Annotate(w, slog.Bool("cached", true))
			s.front.WriteJSON(w, http.StatusOK, httpjson.ExplainReply{
				Reachable: val, Gen: v.gen,
				Stats: rawStats(rangereach.QueryStats{Method: s.methodName(), CacheHit: true}),
			})
			return
		}
		s.mMisses.Inc()
	}
	ans, qs := v.Explain(vertex, rect)
	s.mQueries.Inc()
	if s.cache != nil {
		s.cache.Put(key, v.gen, ans)
	}
	httpjson.Annotate(w, slog.String("trace", qs.String()))
	s.front.WriteJSON(w, http.StatusOK, httpjson.ExplainReply{Reachable: ans, Gen: v.gen, Stats: rawStats(qs)})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req httpjson.BatchRequest
	if !s.front.Decode(w, r, nil, &req) {
		return
	}
	start := time.Now()
	v := s.currentView()
	if err := req.Check(v.vertices); err != nil {
		s.front.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	queries := make([]rangereach.Query, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = rangereach.Query{
			Vertex: q.Vertex,
			Region: rangereach.NewRect(q.Region[0], q.Region[1], q.Region[2], q.Region[3]),
		}
	}
	// The request context reaches the workers, so a client disconnect or
	// deadline stops the in-flight work at the next chunk boundary
	// instead of abandoning it to finish unobserved.
	results, err := v.RangeReachBatchContext(r.Context(), queries, 0) // GOMAXPROCS workers
	if err != nil {
		s.front.WriteError(w, httpjson.CancelStatus(err), "batch: %v", err)
		return
	}
	s.mQueries.Add(int64(len(queries)))
	s.front.WriteJSON(w, http.StatusOK, httpjson.ServerBatchReply{
		Results: results, Gen: v.gen,
		Micros: time.Since(start).Microseconds(),
	})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.dyn == nil {
		s.front.WriteError(w, http.StatusNotImplemented, "updates require dynamic mode (rrserve -dynamic)")
		return
	}
	var req httpjson.UpdateRequest
	if !s.front.Decode(w, r, nil, &req) {
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
		s.front.WriteError(w, http.StatusBadRequest,
			"unknown op %q (want add_user, add_venue, add_edge, del_edge or move_venue)", req.Op)
		return
	}
	res := s.dyn.submit(r.Context(), op)
	if res.err != nil {
		status := http.StatusConflict // out-of-range / missing-edge rejections
		switch {
		case errors.Is(res.err, errClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(res.err, errPublishCheck):
			status = http.StatusInternalServerError
		case errors.Is(res.err, context.DeadlineExceeded), errors.Is(res.err, context.Canceled):
			status = http.StatusGatewayTimeout
		}
		s.front.WriteError(w, status, "%v", res.err)
		return
	}
	resp := httpjson.ServerUpdateReply{Gen: s.dyn.current().gen}
	if op.kind == opAddUser || op.kind == opAddVenue {
		resp.ID = &res.id
	}
	s.front.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := s.currentView()
	resp := httpjson.ServerHealthz{Status: "ok", Vertices: v.vertices, Gen: v.gen}
	if s.dyn != nil {
		resp.Mode, resp.Method = "dynamic", "3DReach-Dynamic"
	} else {
		resp.Mode, resp.Method = "static", s.cfg.Index.Method().String()
	}
	s.front.WriteJSON(w, http.StatusOK, resp)
}
