package router

// Metrics federation: the router scrapes its shards' /metrics
// expositions and aggregates them into rr_cluster_* families on its
// own registry, so one scrape of the router answers cluster-wide
// questions — per-shard p99 (merged from the shards' cumulative
// histogram buckets), scrape staleness, health — without a separate
// metrics pipeline. The same federated snapshot backs GET /v1/cluster,
// the JSON view rrtop polls.
//
// The rr_cluster_* gauge funcs only read the cached snapshot; network
// scraping never runs inside a registry render. Freshness comes from
// the background loop (Config.Federate > 0) or on demand when
// /v1/cluster finds the snapshot stale.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
)

// onDemandMaxAge is the staleness /v1/cluster tolerates before
// triggering a synchronous scrape when no background loop runs.
const onDemandMaxAge = 2 * time.Second

// scrapeTimeout bounds one federation cycle's shard scrapes.
const scrapeTimeout = 2 * time.Second

// shardScrape is one shard's digested /metrics exposition.
type shardScrape struct {
	When     time.Time // zero until the first scrape completes
	Err      string    // scrape or parse failure; zero-valued fields below
	Queries  float64
	Inflight float64
	// CacheHitRatio is rr_cache_hit_ratio, or -1 when the shard runs
	// without a cache.
	CacheHitRatio float64
	P50           float64
	P99           float64
	// Gen is rr_generation, the shard's published dynamic-snapshot
	// generation; 0 for static shards (which never export the gauge).
	Gen     float64
	Buckets metrics.Buckets
}

// federator holds the latest federated snapshot. The scrape path is
// serialized by scrapeMu so concurrent /v1/cluster hits share one
// cycle; readers take mu only.
type federator struct {
	mu    sync.Mutex
	stats []shardScrape // guarded by mu

	scrapeMu sync.Mutex
}

func newFederator(n int) *federator {
	return &federator{stats: make([]shardScrape, n)}
}

// get returns shard sid's latest digest.
func (f *federator) get(sid int) shardScrape {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats[sid]
}

// snapshot copies all digests.
func (f *federator) snapshot() []shardScrape {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]shardScrape, len(f.stats))
	copy(out, f.stats)
	return out
}

// age returns the oldest successful scrape's age, or -1 when some
// shard has never been scraped.
func (f *federator) age() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldest := time.Duration(-1)
	for _, s := range f.stats {
		if s.When.IsZero() {
			return -1
		}
		if a := time.Since(s.When); a > oldest {
			oldest = a
		}
	}
	return oldest
}

// federateLoop runs background scrape cycles until Close.
func (rt *Router) federateLoop() {
	defer close(rt.fedDone)
	t := time.NewTicker(rt.cfg.Federate)
	defer t.Stop()
	rt.federateOnce()
	for {
		select {
		case <-t.C:
			rt.federateOnce()
		case <-rt.fedStop:
			return
		}
	}
}

// ensureFederated refreshes the snapshot if it is older than maxAge
// (or was never taken). Concurrent callers share one scrape cycle.
func (rt *Router) ensureFederated(maxAge time.Duration) {
	if a := rt.fed.age(); a >= 0 && a <= maxAge {
		return
	}
	rt.fed.scrapeMu.Lock()
	defer rt.fed.scrapeMu.Unlock()
	if a := rt.fed.age(); a >= 0 && a <= maxAge {
		return // a racing caller already scraped
	}
	rt.federateOnce()
}

// federateOnce scrapes every distinct backend once and digests the
// expositions into per-shard stats. Failures are recorded per shard
// and leave the shard's previous numbers replaced with zeros — the
// staleness and health gauges, not stale values, tell the story.
func (rt *Router) federateOnce() {
	type scraped struct {
		samples []metrics.Sample
		err     error
	}
	distinct := make([]string, 0, len(rt.cfg.Backends))
	seen := make(map[string]bool, len(rt.cfg.Backends))
	for _, url := range rt.cfg.Backends {
		if !seen[url] {
			seen[url] = true
			distinct = append(distinct, url)
		}
	}
	byURL := make(map[string]*scraped, len(distinct))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, url := range distinct {
		url := url
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples, err := rt.scrapeBackend(url)
			mu.Lock()
			byURL[url] = &scraped{samples, err}
			mu.Unlock()
		}()
	}
	wg.Wait()

	now := time.Now()
	fresh := make([]shardScrape, len(rt.cfg.Backends))
	for sid, url := range rt.cfg.Backends {
		res := byURL[url]
		if res.err != nil {
			fresh[sid] = shardScrape{When: now, Err: res.err.Error(), CacheHitRatio: -1}
			continue
		}
		fresh[sid] = digestShard(res.samples, now)
	}
	rt.fed.mu.Lock()
	rt.fed.stats = fresh
	rt.fed.mu.Unlock()
}

// scrapeBackend fetches and parses one backend's /metrics.
func (rt *Router) scrapeBackend(url string) ([]metrics.Sample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s/metrics: %s", url, resp.Status)
	}
	return metrics.ParseProm(resp.Body)
}

// digestShard reduces one parsed exposition to the numbers the
// cluster view carries.
func digestShard(samples []metrics.Sample, now time.Time) shardScrape {
	s := shardScrape{When: now, CacheHitRatio: -1}
	s.Queries, _ = metrics.Value(samples, "rr_queries_total", nil)
	s.Inflight, _ = metrics.Value(samples, "rr_inflight_requests", nil)
	if v, ok := metrics.Value(samples, "rr_cache_hit_ratio", nil); ok {
		s.CacheHitRatio = v
	}
	s.Gen, _ = metrics.Value(samples, "rr_generation", nil)
	if b, err := metrics.HistogramBuckets(samples, "rr_query_seconds", nil); err == nil && b.Count() > 0 {
		s.Buckets = b
		s.P50 = b.Quantile(0.5)
		s.P99 = b.Quantile(0.99)
	}
	return s
}

// registerClusterMetrics publishes the federated rr_cluster_* families
// on the router registry. All funcs read the cached snapshot only.
func (rt *Router) registerClusterMetrics() {
	for i := range rt.cfg.Backends {
		i := i
		rt.reg.GaugeFunc(
			fmt.Sprintf(`rr_cluster_shard_p50_seconds{shard="%d"}`, i),
			"Median shard query latency from the last federated scrape.",
			func() float64 { return rt.fed.get(i).P50 })
		rt.reg.GaugeFunc(
			fmt.Sprintf(`rr_cluster_shard_p99_seconds{shard="%d"}`, i),
			"99th-percentile shard query latency from the last federated scrape.",
			func() float64 { return rt.fed.get(i).P99 })
		rt.reg.CounterFunc(
			fmt.Sprintf(`rr_cluster_shard_queries_total{shard="%d"}`, i),
			"Shard-reported queries evaluated, from the last federated scrape.",
			func() int64 { return int64(rt.fed.get(i).Queries) })
		rt.reg.GaugeFunc(
			fmt.Sprintf(`rr_cluster_shard_cache_hit_ratio{shard="%d"}`, i),
			"Shard result-cache hit ratio from the last federated scrape; -1 without a cache.",
			func() float64 { return rt.fed.get(i).CacheHitRatio })
		rt.reg.GaugeFunc(
			fmt.Sprintf(`rr_cluster_shard_generation{shard="%d"}`, i),
			"Shard-reported dynamic snapshot generation from the last federated scrape; 0 for static shards.",
			func() float64 { return rt.fed.get(i).Gen })
		rt.reg.GaugeFunc(
			fmt.Sprintf(`rr_cluster_shard_staleness_seconds{shard="%d"}`, i),
			"Age of the shard's last federated scrape; -1 before the first one.",
			func() float64 {
				when := rt.fed.get(i).When
				if when.IsZero() {
					return -1
				}
				return time.Since(when).Seconds()
			})
		rt.reg.GaugeFunc(
			fmt.Sprintf(`rr_cluster_shard_health{shard="%d"}`, i),
			"1 when the shard scrapes cleanly and is not marked down, 0 otherwise.",
			func() float64 {
				s := rt.fed.get(i)
				if s.When.IsZero() || s.Err != "" || rt.health[i].isDown() {
					return 0
				}
				return 1
			})
	}
	rt.reg.GaugeFunc(
		"rr_cluster_max_generation",
		"Highest dynamic snapshot generation across all shards in the last federated scrape.",
		func() float64 {
			var g float64
			for _, s := range rt.fed.snapshot() {
				if s.Gen > g {
					g = s.Gen
				}
			}
			return g
		})
	rt.reg.GaugeFunc(
		"rr_cluster_query_p99_seconds",
		"99th-percentile shard query latency across the whole cluster, merged bucket-for-bucket from every shard's histogram.",
		func() float64 {
			merged := make(metrics.Buckets)
			for _, s := range rt.fed.snapshot() {
				for bound, cum := range s.Buckets {
					merged[bound] += cum
				}
			}
			if merged.Count() == 0 {
				return 0
			}
			return merged.Quantile(0.99)
		})
}

// ---- /v1/cluster ----

// clusterShard is one shard's row in the /v1/cluster view.
type clusterShard struct {
	ID      int    `json:"id"`
	Backend string `json:"backend"`
	// Down reflects the router's passive health breaker.
	Down bool `json:"down"`
	// ScrapeError is the last federation failure, "" on success.
	ScrapeError string `json:"scrape_error,omitempty"`
	// ScrapeAgeMillis is -1 before the first scrape.
	ScrapeAgeMillis int64   `json:"scrape_age_ms"`
	Queries         int64   `json:"queries_total"`
	Inflight        int64   `json:"inflight"`
	CacheHitRatio   float64 `json:"cache_hit_ratio"`
	P50Micros       float64 `json:"p50_micros"`
	P99Micros       float64 `json:"p99_micros"`
	// Gen is the shard's published dynamic snapshot generation; 0 for
	// static shards.
	Gen uint64 `json:"gen"`
}

// clusterRouter is the router's own corner of the /v1/cluster view.
type clusterRouter struct {
	Requests   int64   `json:"requests_total"`
	Errors     int64   `json:"errors_total"`
	EarlyExits int64   `json:"early_exits_total"`
	Pruned     int64   `json:"pruned_shards_total"`
	Inflight   int64   `json:"inflight"`
	P50Micros  float64 `json:"p50_micros"`
	P99Micros  float64 `json:"p99_micros"`
	Traces     int64   `json:"traces_total"`
	TracesKept int64   `json:"traces_kept_total"`
}

type clusterResponse struct {
	Shards []clusterShard `json:"shards"`
	Router clusterRouter  `json:"router"`
	// ClusterP99Micros merges every shard's latency histogram.
	ClusterP99Micros float64 `json:"cluster_p99_micros"`
	// MaxGeneration is the highest dynamic snapshot generation across
	// the shard set — rrload's churn mode watches it advance.
	MaxGeneration uint64 `json:"max_generation"`
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	maxAge := rt.cfg.Federate
	if maxAge <= 0 {
		maxAge = onDemandMaxAge
	}
	rt.ensureFederated(maxAge)

	stats := rt.fed.snapshot()
	resp := clusterResponse{Shards: make([]clusterShard, len(stats))}
	merged := make(metrics.Buckets)
	for sid, s := range stats {
		row := clusterShard{
			ID:            sid,
			Backend:       rt.cfg.Backends[sid],
			Down:          rt.health[sid].isDown(),
			ScrapeError:   s.Err,
			Queries:       int64(s.Queries),
			Inflight:      int64(s.Inflight),
			CacheHitRatio: s.CacheHitRatio,
			P50Micros:     s.P50 * 1e6,
			P99Micros:     s.P99 * 1e6,
			Gen:           uint64(s.Gen),
		}
		if row.Gen > resp.MaxGeneration {
			resp.MaxGeneration = row.Gen
		}
		row.ScrapeAgeMillis = -1
		if !s.When.IsZero() {
			row.ScrapeAgeMillis = time.Since(s.When).Milliseconds()
		}
		for bound, cum := range s.Buckets {
			merged[bound] += cum
		}
		resp.Shards[sid] = row
	}
	if merged.Count() > 0 {
		resp.ClusterP99Micros = merged.Quantile(0.99) * 1e6
	}
	resp.Router = clusterRouter{
		Requests:   rt.mReqQuery.Value() + rt.mReqBatch.Value(),
		Errors:     rt.mReqErrs.Value(),
		EarlyExits: rt.mEarlyExit.Value(),
		Pruned:     rt.mPruned.Value(),
		Inflight:   rt.mInflight.Value(),
		P50Micros:  quantileMicros(rt.mLatency, 0.5),
		P99Micros:  quantileMicros(rt.mLatency, 0.99),
		Traces:     rt.mTraces.Value(),
		TracesKept: rt.mTracesKept.Value(),
	}
	rt.writeJSON(w, http.StatusOK, resp)
}

func quantileMicros(h *metrics.Histogram, q float64) float64 {
	if h.Count() == 0 {
		return 0
	}
	v := h.Quantile(q) * 1e6
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
