package router

// Distributed-trace assembly for the scatter-gather tier. Every traced
// request gets a traceBuilder that collects trace.ClusterSpans from the
// router's own phases (placement, fan-out) and from each
// shard call's returned QueryStats, then lands the stitched
// trace.ClusterTrace in the router's ring where GET /v1/trace/{id}
// serves it.
//
// Collection is head-decided, retention tail-decided: when tracing is
// on (Config.TraceSample > 0) every request collects — that is what
// lets the sampler keep *all* slow and errored traces — and the cheap
// decision at the end picks what survives into the ring. When tracing
// is off, a request only collects if the client itself sent a
// traceparent header; otherwise the router's untraced fast path does
// no trace work beyond that single header lookup.

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/httpjson"
	"repro/internal/trace"
)

// traceCtxKey carries the request's traceBuilder through the
// scatter-gather contexts into callShard.
type traceCtxKey struct{}

func traceFrom(ctx context.Context) *traceBuilder {
	tb, _ := ctx.Value(traceCtxKey{}).(*traceBuilder)
	return tb
}

// traceBuilder accumulates one request's spans. Append paths are
// mutex-guarded because shard calls record concurrently; all methods
// are nil-receiver safe so untraced requests thread a nil builder
// everywhere.
type traceBuilder struct {
	id     string // immutable copy of the trace id: readable without mu
	start  time.Time
	forced bool // client sent traceparent: always retain

	mu sync.Mutex
	tr *trace.ClusterTrace // guarded by mu
	// async flags that the handler owns completion (early-exit
	// stragglers). Written and read on the handler goroutine only,
	// before the straggler drain starts, so it needs no lock.
	async bool
}

// newTraceBuilder starts collection for one request. traceID is the
// adopted (client) or minted id.
func newTraceBuilder(traceID, endpoint string, forced bool, start time.Time) *traceBuilder {
	return &traceBuilder{
		id:     traceID,
		start:  start,
		forced: forced,
		tr: &trace.ClusterTrace{
			TraceID:  traceID,
			Endpoint: endpoint,
			Start:    start,
		},
	}
}

// traceID returns the request's trace id from the builder's immutable
// copy — shard goroutines call this mid-flight while others append
// spans under mu, so it must not read through tb.tr.
func (tb *traceBuilder) traceID() string {
	if tb == nil {
		return ""
	}
	return tb.id
}

// span records one completed step. Router-tier steps pass
// trace.NoShard.
func (tb *traceBuilder) span(name, tier string, shard int, start time.Time, err string, attrs map[string]string, stats json.RawMessage) {
	if tb == nil {
		return
	}
	sp := trace.ClusterSpan{
		Name:       name,
		Tier:       tier,
		Shard:      shard,
		StartNS:    start.Sub(tb.start).Nanoseconds(),
		DurationNS: time.Since(start).Nanoseconds(),
		Err:        err,
		Attrs:      attrs,
		Stats:      stats,
	}
	tb.mu.Lock()
	tb.tr.Spans = append(tb.tr.Spans, sp)
	tb.mu.Unlock()
}

// beginAsync transfers completion ownership to the handler: the front
// will not store the trace, the handler's straggler-drain goroutine
// will. Called on the handler goroutine before it returns, so the
// front's read needs no lock.
func (tb *traceBuilder) beginAsync() {
	if tb != nil {
		tb.async = true
	}
}

func (tb *traceBuilder) isAsync() bool { return tb != nil && tb.async }

// startTrace is the front's trace hook: it decides whether this request
// collects a trace. A valid client traceparent always traces (and pins
// the trace id the client already knows); otherwise ambient collection
// requires TraceSample > 0. A traced request carries the builder in its
// context, and the trace is stored when the front ends it — unless the
// handler took completion over for its stragglers (beginAsync).
func (rt *Router) startTrace(r *http.Request, endpoint string, start time.Time) (*http.Request, string, func(int, time.Duration)) {
	traceID, _, forced := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
	if !forced {
		if rt.cfg.TraceSample <= 0 {
			return r, "", nil
		}
		traceID = trace.NewTraceID()
	}
	tb := newTraceBuilder(traceID, endpoint, forced, start)
	rt.mTraces.Inc()
	end := func(status int, elapsed time.Duration) {
		if !tb.isAsync() {
			rt.storeTrace(tb, status, elapsed)
		}
	}
	return r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tb)), traceID, end
}

// storeTrace runs the tail-sampling decision and retains the finished
// trace in the ring. Spans must not be appended after this call.
func (rt *Router) storeTrace(tb *traceBuilder, status int, elapsed time.Duration) {
	if tb == nil {
		return
	}
	keep, reason := rt.sampler.Keep(elapsed, status >= 400, tb.forced)
	if !keep {
		return
	}
	tb.mu.Lock()
	tb.tr.Status = status
	tb.tr.DurationNS = elapsed.Nanoseconds()
	tb.tr.Reason = reason
	tr := tb.tr
	tb.mu.Unlock()
	rt.ring.Put(tr)
	rt.mTracesKept.Inc()
}

// ---- retrieval endpoints ----

func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := rt.ring.Get(id)
	if tr == nil {
		rt.front.WriteError(w, http.StatusNotFound, "trace %q not found (never sampled, or evicted from the ring)", id)
		return
	}
	rt.front.WriteJSON(w, http.StatusOK, tr)
}

func (rt *Router) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 20
	if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v > 0 {
		n = v
	}
	recent := rt.ring.Recent(n)
	resp := httpjson.TracesReply{Traces: make([]httpjson.TraceSummary, len(recent))}
	for i, tr := range recent {
		resp.Traces[i] = httpjson.TraceSummary{
			TraceID:    tr.TraceID,
			Endpoint:   tr.Endpoint,
			Start:      tr.Start,
			DurationNS: tr.DurationNS,
			Status:     tr.Status,
			Reason:     tr.Reason,
			Spans:      len(tr.Spans),
		}
	}
	rt.front.WriteJSON(w, http.StatusOK, resp)
}
