package httpjson

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// StatusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the reply was written. The status never reaches
// that client; it tells hang-ups from timeouts (504) in the request log
// and the error counter.
const StatusClientClosedRequest = 499

// CancelStatus maps a canceled request context's error to the reply
// status: 499 when the client went away, 504 when a deadline passed.
func CancelStatus(err error) int {
	if errors.Is(err, context.Canceled) {
		return StatusClientClosedRequest
	}
	return http.StatusGatewayTimeout
}

// Front is one tier's request wrapper. Wrap puts a handler behind the
// endpoint counter, the in-flight gauge, the latency histogram and the
// request log; WriteJSON counts the replies of 400 and more in Errors.
// The tiers differ only in the fields they set.
type Front struct {
	Inflight *metrics.Gauge
	Latency  *metrics.Histogram
	Errors   *metrics.Counter
	// MaxBody caps the bodies Decode reads (<= 0: no cap).
	MaxBody int64
	// Logger, when set, gets one record per request, at Warn as "slow
	// request" when it took Slow or longer (Slow > 0), with LogAttrs
	// after the request's own fields.
	Logger   *slog.Logger
	Slow     time.Duration
	LogAttrs []slog.Attr
	// Deadline, when positive, bounds each request's context.
	Deadline time.Duration
	// Closed, when set, makes Close a drain: Close waits until no
	// wrapped handler is running, and from then on a request is answered
	// 503 with Closed before its handler runs.
	Closed error
	// Trace, when set, starts a request's trace: it returns the request
	// to serve, and for a traced request its trace id and the func that
	// ends the trace with the reply's status and latency.
	Trace func(r *http.Request, endpoint string, start time.Time) (*http.Request, string, func(status int, elapsed time.Duration))

	reqID  atomic.Uint64 // request ids for log correlation
	drain  sync.RWMutex  // held shared by every running handler
	closed bool          // guarded by drain
}

// Close closes the front once the handlers running have returned.
func (f *Front) Close() {
	f.drain.Lock()
	f.closed = true
	f.drain.Unlock()
}

// StatusWriter captures a reply's status and the attributes its handler
// Annotates. Wrap builds one only when a log record or a trace reads it.
type StatusWriter struct {
	http.ResponseWriter
	code  int
	attrs []slog.Attr // one handler goroutine appends: no lock
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Status is the status written, 200 when the handler wrote none.
func (w *StatusWriter) Status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Annotate attaches attributes to the request's log record; a no-op
// when no record will be written.
func Annotate(w http.ResponseWriter, attrs ...slog.Attr) {
	if sw, ok := w.(*StatusWriter); ok {
		sw.attrs = append(sw.attrs, attrs...)
	}
}

// Wrap returns h behind the front, counting its requests in requests;
// endpoint names its trace.
func (f *Front) Wrap(endpoint string, requests *metrics.Counter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if f.Closed != nil {
			// Enter, then look at the mark: Close sets it only while no
			// handler is inside, so one that sees it clear runs to the end
			// before Close returns.
			f.drain.RLock()
			defer f.drain.RUnlock()
			if f.closed {
				f.WriteError(w, http.StatusServiceUnavailable, "%v", f.Closed)
				return
			}
		}
		requests.Inc()
		f.Inflight.Inc()
		start := time.Now()
		var (
			traceID  string
			endTrace func(int, time.Duration)
		)
		if f.Trace != nil {
			r, traceID, endTrace = f.Trace(r, endpoint, start)
		}
		var sw *StatusWriter
		if f.Logger != nil || endTrace != nil {
			sw = &StatusWriter{ResponseWriter: w}
			w = sw
		}
		if f.Deadline > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), f.Deadline)
			h(w, r.WithContext(ctx))
			cancel()
		} else {
			h(w, r)
		}
		elapsed := time.Since(start)
		f.Latency.Observe(elapsed.Seconds())
		f.Inflight.Dec()
		if endTrace != nil {
			endTrace(sw.Status(), elapsed)
		}
		if f.Logger != nil {
			f.log(r, sw, traceID, elapsed)
		}
	}
}

// log writes the request's record. Its trace id is the request's trace's
// or its traceparent's, so a shard's slow-request record greps straight
// to the router's cluster trace.
func (f *Front) log(r *http.Request, sw *StatusWriter, traceID string, elapsed time.Duration) {
	level, msg := slog.LevelInfo, "request"
	if f.Slow > 0 && elapsed >= f.Slow {
		level, msg = slog.LevelWarn, "slow request"
	}
	if !f.Logger.Enabled(context.Background(), level) {
		return
	}
	if traceID == "" {
		traceID, _, _ = trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
	}
	attrs := make([]slog.Attr, 0, 6+len(f.LogAttrs)+len(sw.attrs))
	attrs = append(attrs,
		slog.Uint64("req", f.reqID.Add(1)),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.Status()),
		slog.Duration("elapsed", elapsed),
	)
	attrs = append(attrs, f.LogAttrs...)
	if traceID != "" {
		attrs = append(attrs, slog.String("trace_id", traceID))
	}
	attrs = append(attrs, sw.attrs...)
	f.Logger.LogAttrs(context.Background(), level, msg, attrs...)
}

// Decode reads r's body into v through sc (nil: a pooled scratch) under
// MaxBody, answering the failure itself: 413 for an oversized body, 400
// for anything but one JSON value of v's shape.
func (f *Front) Decode(w http.ResponseWriter, r *http.Request, sc *Scratch, v any) bool {
	if sc == nil {
		sc = Get()
		defer sc.Release()
	}
	if status, err := sc.Decode(w, r, f.MaxBody, v); err != nil {
		f.WriteError(w, status, "%v", err)
		return false
	}
	return true
}

// WriteJSON sends v as the JSON reply with status.
func (f *Front) WriteJSON(w http.ResponseWriter, status int, v any) {
	if status >= 400 {
		f.Errors.Inc()
	}
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	// A write error means the client went away after the status line was
	// committed: there is nothing left to report.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError sends an ErrorReply with status.
func (f *Front) WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	f.WriteJSON(w, status, ErrorReply{Error: fmt.Sprintf(format, args...)})
}
