package metrics

import (
	"math"
	"strings"
	"testing"
)

// TestParsePromRoundTrip: the parser is the inverse of WritePrometheus
// — every counter, gauge and histogram bucket a registry renders comes
// back with the same name, labels and value.
func TestParsePromRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(`rr_requests_total{endpoint="query"}`, "requests")
	c.Add(42)
	g := reg.Gauge("rr_inflight", "in flight")
	g.Set(7)
	reg.GaugeFunc("rr_ratio", "ratio", func() float64 { return 0.25 })
	h := reg.Histogram(`rr_lat_seconds{shard="3"}`, "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parsing own exposition: %v\n%s", err, b.String())
	}

	if v, ok := Value(samples, "rr_requests_total", map[string]string{"endpoint": "query"}); !ok || v != 42 {
		t.Errorf("counter: got (%v, %v)", v, ok)
	}
	if v, ok := Value(samples, "rr_inflight", nil); !ok || v != 7 {
		t.Errorf("gauge: got (%v, %v)", v, ok)
	}
	if v, ok := Value(samples, "rr_ratio", nil); !ok || v != 0.25 {
		t.Errorf("gauge func: got (%v, %v)", v, ok)
	}
	if v, ok := Value(samples, "rr_lat_seconds_count", map[string]string{"shard": "3"}); !ok || v != 3 {
		t.Errorf("histogram count: got (%v, %v)", v, ok)
	}
	buckets, err := HistogramBuckets(samples, "rr_lat_seconds", map[string]string{"shard": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if buckets.Count() != 3 {
		t.Errorf("bucket count: got %v, want 3", buckets.Count())
	}
	if got := buckets[0.1]; got != 2 {
		t.Errorf("le=0.1 cumulative: got %v, want 2", got)
	}
	if got := buckets[math.Inf(1)]; got != 3 {
		t.Errorf("le=+Inf cumulative: got %v, want 3", got)
	}
}

// TestBucketsQuantileMatchesHistogram: the scraped-side quantile
// estimate agrees with the live Histogram.Quantile over the same
// observations.
func TestBucketsQuantileMatchesHistogram(t *testing.T) {
	h := NewHistogram(nil)
	obs := []float64{0.0001, 0.0004, 0.002, 0.002, 0.015, 0.08, 0.4, 1.2}
	for _, x := range obs {
		h.Observe(x)
	}
	reg := NewRegistry()
	h2 := reg.Histogram("rr_q_seconds", "q", nil)
	for _, x := range obs {
		h2.Observe(x)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := HistogramBuckets(samples, "rr_q_seconds", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		live, scraped := h.Quantile(q), buckets.Quantile(q)
		if math.Abs(live-scraped) > 1e-9 {
			t.Errorf("q=%v: live %v vs scraped %v", q, live, scraped)
		}
	}
}

// TestBucketsMerge: merging two shards' histograms sums cumulative
// counts bound-for-bound, and the merged quantile equals the quantile
// of one histogram fed both observation sets.
func TestBucketsMerge(t *testing.T) {
	mkScrape := func(obs []float64) []Sample {
		reg := NewRegistry()
		h := reg.Histogram("rr_q_seconds", "q", nil)
		for _, x := range obs {
			h.Observe(x)
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseProm(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	shard0 := []float64{0.001, 0.003, 0.02}
	shard1 := []float64{0.0002, 0.07, 0.7, 2}

	merged := make(Buckets)
	for _, samples := range [][]Sample{mkScrape(shard0), mkScrape(shard1)} {
		b, err := HistogramBuckets(samples, "rr_q_seconds", nil)
		if err != nil {
			t.Fatal(err)
		}
		for bound, cum := range b {
			merged[bound] += cum
		}
	}

	oracle := NewHistogram(nil)
	for _, x := range append(append([]float64{}, shard0...), shard1...) {
		oracle.Observe(x)
	}
	if merged.Count() != 7 {
		t.Fatalf("merged count %v, want 7", merged.Count())
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, want := merged.Quantile(q), oracle.Quantile(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("merged q=%v: got %v, want %v", q, got, want)
		}
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"rr_x",                     // no value
		"rr_x{le=\"0.1\" 3",        // unterminated labels
		"rr_x{le=0.1} 3",           // unquoted label value
		"rr_x{le=\"0.1\"} notanum", // bad value
		"rr_x{le=\"0.1} 3",         // unterminated quote
		"rr_x{} }",                 // garbage value
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseProm(%q) succeeded", bad)
		}
	}
	// Special values parse.
	samples, err := ParseProm(strings.NewReader("rr_bucket{le=\"+Inf\"} 5\nrr_nan NaN\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || !math.IsNaN(samples[1].Value) {
		t.Fatalf("special values: %+v", samples)
	}
}
