// Package metrics is a dependency-free metrics toolkit for the serving
// subsystem: atomic counters, gauges and fixed-bucket histograms that a
// Registry renders in the Prometheus text exposition format (version
// 0.0.4). Everything is safe for concurrent use; observation paths are
// single atomic operations so instrumenting a hot path costs
// nanoseconds.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be non-negative for Prometheus semantics.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is an integer metric that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set stores an absolute value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram counts observations into fixed cumulative buckets and
// tracks their sum, Prometheus histogram style. Buckets are chosen at
// construction; observations are two atomic adds plus one CAS loop for
// the float sum.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefBuckets is a latency-oriented default: 10µs to ~10s in decades,
// expressed in seconds.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1, 1, 2.5, 5, 10,
}

// NewHistogram builds a histogram over the given ascending upper
// bounds; nil selects DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1), // last = +Inf
	}
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket that holds it — the same estimate Prometheus's
// histogram_quantile computes server-side. It returns 0 with no
// observations; the top bucket is clamped to its lower bound since +Inf
// cannot be interpolated.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// metric is one registered name; exactly one of the typed fields is set.
type metric struct {
	name string // may carry a {label="..."} suffix
	help string
	typ  string // counter, gauge, histogram
	c    *Counter
	g    *Gauge
	h    *Histogram
	gf   func() float64
}

// A Registry holds named metrics and renders them. Registration is
// expected at setup time; rendering may race with observations, which
// is fine — atomics give a consistent-enough scrape.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// baseName strips a {label} suffix for HELP/TYPE headers.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Counter registers and returns a counter. The name may embed a
// constant label set, e.g. `rr_queries_total{endpoint="query"}`.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(metric{name: name, help: help, typ: "counter", c: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(metric{name: name, help: help, typ: "gauge", g: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the natural shape for runtime stats (goroutine count, heap
// size) that would otherwise need a background updater. fn must be safe
// for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(metric{name: name, help: help, typ: "gauge", gf: fn})
}

// Histogram registers and returns a histogram over the given bounds
// (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(metric{name: name, help: help, typ: "histogram", h: h})
	return h
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.metrics {
		if existing.name == m.name {
			panic(fmt.Sprintf("metrics: duplicate registration of %q", m.name))
		}
	}
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered metric in the text
// exposition format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()

	var b strings.Builder
	seenHeader := make(map[string]bool)
	for _, m := range ms {
		base := baseName(m.name)
		if !seenHeader[base] {
			seenHeader[base] = true
			fmt.Fprintf(&b, "# HELP %s %s\n", base, m.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, m.typ)
		}
		switch {
		case m.c != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.c.Value())
		case m.g != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.g.Value())
		case m.gf != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, strconv.FormatFloat(m.gf(), 'g', -1, 64))
		case m.h != nil:
			writeHistogram(&b, m.name, m.h)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP serves the registry as a /metrics endpoint. A scrape aborted
// mid-write is the scraper's problem; the next one gets a fresh render.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// writeHistogram renders cumulative buckets plus _sum and _count,
// splicing the le label into any existing label set.
func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base = name[:i]
		labels = strings.TrimSuffix(name[i+1:], "}")
	}
	bucketName := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`%s_bucket{le=%q}`, base, le)
		}
		return fmt.Sprintf(`%s_bucket{%s,le=%q}`, base, labels, le)
	}
	suffixed := func(suffix string) string {
		if labels == "" {
			return base + suffix
		}
		return base + suffix + "{" + labels + "}"
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s %d\n", bucketName(formatBound(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s %d\n", bucketName("+Inf"), cum)
	fmt.Fprintf(b, "%s %s\n", suffixed("_sum"), strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(b, "%s %d\n", suffixed("_count"), h.Count())
}

func formatBound(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
