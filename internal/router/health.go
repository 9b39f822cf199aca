package router

import (
	"sync"
	"time"
)

// health tracks one shard's availability from the router's own traffic
// (passive health checking): DownAfter consecutive failures mark the
// shard down for Cooldown. While down, calls are not attempted — the
// partial-failure policy decides what the caller sees instead. After
// the cooldown one trial request is let through (half-open); its
// outcome either closes the breaker or re-arms the cooldown.
type health struct {
	mu        sync.Mutex
	fails     int       // guarded by mu — consecutive failures
	downUntil time.Time // guarded by mu — zero when up
	probing   bool      // guarded by mu — a half-open trial is in flight
	down      bool      // guarded by mu — currently marked down (for the gauge)

	downAfter int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests
}

func newHealth(downAfter int, cooldown time.Duration, now func() time.Time) *health {
	if downAfter <= 0 {
		downAfter = 3
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &health{downAfter: downAfter, cooldown: cooldown, now: now}
}

// allow reports whether a request to the shard may proceed. A shard in
// cooldown refuses; once the cooldown elapses exactly one caller gets a
// half-open trial until report settles it.
func (h *health) allow() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.down {
		return true
	}
	if h.now().Before(h.downUntil) || h.probing {
		return false
	}
	h.probing = true
	return true
}

// report records a call outcome. Success resets the breaker; failure
// counts toward the mark-down threshold and re-arms the cooldown when
// the shard was half-open or crosses the threshold.
func (h *health) report(ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.probing = false
	if ok {
		h.fails = 0
		h.down = false
		h.downUntil = time.Time{}
		return
	}
	h.fails++
	if h.fails >= h.downAfter {
		h.down = true
		h.downUntil = h.now().Add(h.cooldown)
	}
}

// abort releases an in-flight half-open probe without a verdict — the
// call was canceled by the scatter-gather (early exit or client
// disconnect) before the shard could prove itself either way. The down
// state and cooldown deadline stay untouched, so the next allow after
// the (already elapsed) cooldown grants a fresh trial instead of the
// shard staying down forever behind a probe that never reports.
func (h *health) abort() {
	h.mu.Lock()
	h.probing = false
	h.mu.Unlock()
}

// isDown reports the mark-down state (for the gauge and healthz). A
// shard stays "down" through its half-open phase until a success closes
// the breaker.
func (h *health) isDown() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down
}
