// Cluster-level tracing: the serializable span model that lets the
// router tier stitch one end-to-end picture of a distributed query out
// of its own orchestration steps (placement, fan-out, early exits) and
// each shard's engine profile.
//
// The in-process Span stays what it is — an allocation-free counter
// sink threaded through one engine evaluation. A ClusterSpan is the
// opposite trade: it exists only on traced requests, is built a
// handful at a time, and is meant to cross process boundaries as JSON.
// The two meet where rrserve converts a completed Span into QueryStats
// and returns it in the response body; the router embeds those stats
// verbatim into the shard's ClusterSpan.
//
// Trace identity follows the W3C Trace Context format: requests carry
// a `traceparent` header `00-<32 hex trace-id>-<16 hex parent-id>-01`,
// the router adopts a client-supplied trace id (so rrquery -trace and
// rrload -trace can find their own traces again) or mints one, and
// every router→shard hop gets a fresh parent span id.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Tier names for ClusterSpan.Tier.
const (
	TierRouter = "router"
	TierShard  = "shard"
)

// NoShard is the ClusterSpan.Shard value of router-tier spans.
const NoShard = -1

// NewTraceID returns a 32-hex-digit random trace id. It never returns
// the all-zero id, which the W3C format reserves as invalid.
func NewTraceID() string { return randomHex(16) }

// NewSpanID returns a 16-hex-digit random span id.
func NewSpanID() string { return randomHex(8) }

func randomHex(n int) string {
	b := make([]byte, n)
	for {
		if _, err := rand.Read(b); err != nil {
			panic(fmt.Sprintf("trace: reading random ids: %v", err))
		}
		for _, x := range b {
			if x != 0 {
				return hex.EncodeToString(b)
			}
		}
		// All-zero draw (astronomically unlikely): invalid per spec, retry.
	}
}

// TraceparentHeader is the propagation header name.
const TraceparentHeader = "traceparent"

// FormatTraceparent renders a traceparent header value with the
// sampled flag set.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent extracts the trace and parent span ids from a
// traceparent header value. It accepts version 00 exactly and rejects
// malformed or all-zero ids, returning ok=false; callers treat that as
// "no trace requested" rather than an error, per the W3C spec.
func ParseTraceparent(value string) (traceID, spanID string, ok bool) {
	if len(value) != 55 || value[:3] != "00-" || value[35] != '-' || value[52] != '-' {
		return "", "", false
	}
	traceID, spanID = value[3:35], value[36:52]
	if !isHex(traceID) || !isHex(spanID) || allZero(traceID) || allZero(spanID) {
		return "", "", false
	}
	return traceID, spanID, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// ClusterSpan is one step of a distributed query: a router
// orchestration phase (placement, fan-out) or one shard call. Times are offsets from the owning ClusterTrace's start so a
// stitched trace is self-contained regardless of clock skew between
// the processes that contributed to it — only the router's clock is
// ever read.
type ClusterSpan struct {
	// Name identifies the step: "placement", "fanout" or "shard_call".
	Name string `json:"name"`
	// Tier is TierRouter or TierShard.
	Tier string `json:"tier"`
	// Shard is the shard id for shard-tier spans, NoShard for router
	// spans.
	Shard int `json:"shard"`
	// StartNS is the span's start as nanoseconds since the trace began.
	StartNS int64 `json:"start_ns"`
	// DurationNS is the span's wall-clock length in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Err records why the step failed ("canceled" for early-exit
	// victims); empty on success.
	Err string `json:"error,omitempty"`
	// Attrs carries small step-specific facts (backend URL, pruned
	// counts, early-exit flag) as strings.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Stats embeds the shard's own QueryStats JSON verbatim for
	// shard_call spans — the router does not reinterpret it, so the
	// shard's stage and counter vocabulary survives the hop unchanged.
	Stats json.RawMessage `json:"stats,omitempty"`
}

// ClusterTrace is one stitched end-to-end query trace.
type ClusterTrace struct {
	TraceID string `json:"trace_id"`
	// Endpoint is the router endpoint that served the request ("query",
	// "batch").
	Endpoint string `json:"endpoint"`
	// Start is the router-clock wall time the request began.
	Start time.Time `json:"start"`
	// DurationNS is the end-to-end request latency in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Status is the HTTP status the router answered with.
	Status int `json:"status"`
	// Reason records why the trace was retained: "forced" (client sent
	// traceparent), "error", "slow" or "sampled".
	Reason string `json:"reason,omitempty"`
	// Spans are the steps, in completion order (concurrent shard calls
	// finish in whatever order the cluster produced).
	Spans []ClusterSpan `json:"spans"`
}

// ShardSpans returns the spans contributed by shard sid, preserving
// order. A helper for tests and the parity checks.
func (t *ClusterTrace) ShardSpans(sid int) []ClusterSpan {
	var out []ClusterSpan
	for _, sp := range t.Spans {
		if sp.Tier == TierShard && sp.Shard == sid {
			out = append(out, sp)
		}
	}
	return out
}

// Retention reasons for ClusterTrace.Reason.
const (
	ReasonForced  = "forced"
	ReasonError   = "error"
	ReasonSlow    = "slow"
	ReasonSampled = "sampled"
)

// Sampler implements tail-based retention: the decision whether to
// keep a collected trace happens after the request finished, when its
// latency and status are known. Slow and errored traces are always
// kept — those are the ones worth debugging — and the healthy
// remainder is down-sampled to one in N by a deterministic tick
// counter, so a steady request stream retains a steady trace stream.
type Sampler struct {
	// N keeps one of every N fast, healthy traces; N <= 0 keeps none of
	// them (slow/error/forced traces are still kept).
	N int
	// Slow is the latency at or above which a trace is always kept.
	// Zero disables the slow rule.
	Slow time.Duration

	tick atomic.Uint64 // only grows: one tick per healthy, fast trace
}

// Keep decides retention for one finished trace and reports the
// decision's reason. forced marks traces the client explicitly asked
// for (traceparent header), which are always kept.
func (s *Sampler) Keep(elapsed time.Duration, isError, forced bool) (bool, string) {
	switch {
	case forced:
		return true, ReasonForced
	case isError:
		return true, ReasonError
	case s.Slow > 0 && elapsed >= s.Slow:
		return true, ReasonSlow
	}
	if s.N > 0 && s.tick.Add(1)%uint64(s.N) == 0 {
		return true, ReasonSampled
	}
	return false, ""
}

// Ring is a fixed-capacity buffer of recent traces with id lookup.
// Writers evict the oldest trace; readers (GET /v1/trace/{id}, rrtop's
// recent-traces pane) race freely with in-flight scatter-gathers, so
// everything is mutex-guarded — trace retrieval is an operator path,
// not a query path.
type Ring struct {
	mu   sync.Mutex
	buf  []*ClusterTrace          // guarded by mu — circular; nil until filled
	next int                      // guarded by mu
	byID map[string]*ClusterTrace // guarded by mu
}

// NewRing returns a ring holding up to n traces (minimum 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{
		buf:  make([]*ClusterTrace, n),
		byID: make(map[string]*ClusterTrace, n),
	}
}

// Put stores a finished trace, evicting the oldest when full. The
// trace must not be mutated after Put.
func (r *Ring) Put(t *ClusterTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.buf[r.next]; old != nil {
		delete(r.byID, old.TraceID)
	}
	r.buf[r.next] = t
	r.byID[t.TraceID] = t
	r.next = (r.next + 1) % len(r.buf)
}

// Get returns the trace with the given id, or nil if it was never
// stored or has been evicted.
func (r *Ring) Get(id string) *ClusterTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// Recent returns up to max traces, newest first.
func (r *Ring) Recent(max int) []*ClusterTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if max <= 0 || max > len(r.buf) {
		max = len(r.buf)
	}
	out := make([]*ClusterTrace, 0, max)
	for i := 1; i <= len(r.buf) && len(out) < max; i++ {
		if t := r.buf[(r.next-i+len(r.buf))%len(r.buf)]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Len reports how many traces the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}
