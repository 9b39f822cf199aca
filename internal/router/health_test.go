package router

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable clock for health tests. Shard calls read
// it from their own goroutines, so it locks.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

// withClock points every shard's breaker of rt at a fresh fake clock.
// Call it before any traffic.
func withClock(rt *Router) *fakeClock {
	clk := newFakeClock()
	for _, h := range rt.health {
		h.now = clk.now
	}
	return clk
}

func mustAllow(t *testing.T, h *health, want bool) {
	t.Helper()
	if got := h.allow(); got != want {
		t.Fatalf("allow() = %v, want %v", got, want)
	}
}

func TestHealthMarkDownAndHalfOpen(t *testing.T) {
	clk := newFakeClock()
	h := newHealth(clk.now)
	for i := 0; i < downAfter; i++ {
		if h.isDown() {
			t.Fatalf("down after %d failures", i)
		}
		mustAllow(t, h, true)
		h.report(false)
	}
	if !h.isDown() {
		t.Fatal("not down after threshold")
	}
	mustAllow(t, h, false)
	clk.advance(cooldown + 100*time.Millisecond)
	mustAllow(t, h, true)  // half-open trial
	mustAllow(t, h, false) // only one probe at a time
	h.report(true)
	if h.isDown() {
		t.Fatal("still down after successful trial")
	}
	mustAllow(t, h, true)
}

// TestHealthAbortReleasesProbe is the regression test for the probe
// leak: a half-open trial whose call is canceled (early exit, client
// disconnect) must release the probe slot, or allow() refuses the
// shard forever and it can never recover.
func TestHealthAbortReleasesProbe(t *testing.T) {
	clk := newFakeClock()
	h := newHealth(clk.now)
	for i := 0; i < downAfter; i++ {
		h.report(false)
	}
	if !h.isDown() {
		t.Fatal("not down")
	}
	clk.advance(cooldown + 100*time.Millisecond)
	mustAllow(t, h, true) // probe granted
	h.abort()             // canceled before any verdict
	if !h.isDown() {
		t.Fatal("abort must not close the breaker")
	}
	mustAllow(t, h, true) // a fresh trial must be granted
	h.report(true)
	if h.isDown() {
		t.Fatal("still down after successful retrial")
	}
}
