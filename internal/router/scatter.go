package router

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// An abandoned straggler gets graceFactor times what the winner took to
// finish, and never less than graceFloor. Shards of one cluster answer
// the same query in about the same time, so a healthy straggler lands
// well inside the factor; the floor keeps a very fast winner (a cache
// hit, tens of µs) from condemning a neighbour that merely lost a
// scheduling round. Past the grace the call is canceled as a hung one
// would be: what is being bounded is a connection and a goroutine held
// for an answer nobody reads.
const (
	graceFactor = 4
	graceFloor  = time.Millisecond
)

// shardResult is one shard's answer to a scattered request.
type shardResult struct {
	sid       int
	reachable bool   // /v1/query
	answers   []bool // /v1/batch: parallel to the subset sent to the shard
	err       error
}

// scatter is one request's fan-out: the shard calls run on goroutines
// of their own under a context detached from the request's — net/http
// cancels that one the moment the handler returns, and a canceled call
// costs its connection — and gather hands their results to the handler
// as they land. After an early exit the handler abandons the scatter:
// the calls still running get a grace to finish, then are canceled.
// Whichever call finishes last releases the context and, on a traced
// request, stores the trace.
type scatter struct {
	rt     *Router
	req    context.Context // the request's own, watched while gathering
	ctx    context.Context // what the calls run under; carries the trace
	cancel context.CancelFunc
	start  time.Time
	ch     chan shardResult // one slot per call: no sender blocks

	mu      sync.Mutex
	running int         // guarded by mu — calls not yet finished
	grace   *time.Timer // guarded by mu — armed by abandon
	drained func()      // guarded by mu — abandon's hand-over, run by the last call
}

// newScatter prepares a fan-out of n calls for request r.
func (rt *Router) newScatter(r *http.Request, n int) *scatter {
	s := &scatter{rt: rt, req: r.Context(), start: time.Now(), ch: make(chan shardResult, n), running: n}
	s.ctx, s.cancel = context.WithCancel(context.WithoutCancel(s.req))
	return s
}

// launch starts one call. Exactly n launches follow newScatter.
func (s *scatter) launch(call func(ctx context.Context) shardResult) {
	s.rt.calls.Add(1)
	go func() {
		defer s.rt.calls.Done()
		s.ch <- call(s.ctx)
		s.finish()
	}()
}

// finish retires one call; the last one stops the grace timer, releases
// the context and runs what abandon left behind.
func (s *scatter) finish() {
	s.mu.Lock()
	s.running--
	last, grace, drained := s.running == 0, s.grace, s.drained
	s.mu.Unlock()
	if !last {
		return
	}
	if grace != nil {
		grace.Stop()
	}
	s.cancel()
	if drained != nil {
		drained()
	}
}

// gather feeds results to settled in completion order until it reports
// the request settled or every call is in. It returns the shards whose
// call failed and whether calls were still outstanding at the end — an
// early exit. A client that goes away first cancels every call.
func (s *scatter) gather(settled func(shardResult) bool) (failed []int, early bool) {
	gone, n := s.req.Done(), cap(s.ch)
	for got := 0; got < n; {
		select {
		case res := <-s.ch:
			got++
			if res.err != nil {
				failed = append(failed, res.sid)
			} else if settled(res) {
				return failed, got < n
			}
		case <-gone:
			s.cancel()
			gone = nil // the canceled calls still report; keep collecting
		}
	}
	return failed, false
}

// abandon ends the handler's interest after an early exit (always a
// 200). tb's trace, if any, is stored once the stragglers have recorded
// their spans, with the latency the client saw.
func (s *scatter) abandon(tb *traceBuilder) {
	var store func()
	if tb != nil {
		tb.beginAsync()
		elapsed := time.Since(tb.start)
		store = func() { s.rt.storeTrace(tb, http.StatusOK, elapsed) }
	}
	grace := graceFactor * time.Since(s.start)
	if grace < graceFloor {
		grace = graceFloor
	}
	s.mu.Lock()
	stragglers := s.running > 0
	if stragglers {
		s.grace = time.AfterFunc(grace, s.cancel)
		s.drained = store
	}
	s.mu.Unlock()
	if !stragglers && store != nil {
		store() // every call had already finished
	}
}
