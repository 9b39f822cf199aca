package router

// Cluster view: GET /v1/cluster scrapes every shard's /metrics
// exposition and digests it into one JSON view — per shard its queries,
// in-flight requests, cache hit ratio, p50 and p99, snapshot generation
// and scrape age or error, plus a cluster p99 merged bucket-for-bucket
// from the shards' cumulative histograms. rrtop polls it.
//
// The scrape runs on demand: a snapshot younger than onDemandMaxAge is
// served as it is, an older one is refreshed first, and concurrent hits
// share one scrape cycle. Nothing scrapes while nobody asks.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/httpjson"
	"repro/internal/metrics"
)

// onDemandMaxAge is the staleness /v1/cluster tolerates before it
// scrapes the shards again.
const onDemandMaxAge = 2 * time.Second

// scrapeTimeout bounds one scrape cycle's shard scrapes.
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

// federator holds the latest scraped snapshot. The scrape path is
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

// ensureFresh refreshes the snapshot if it is older than maxAge (or was
// never taken). Concurrent callers share one scrape cycle.
func (rt *Router) ensureFresh(maxAge time.Duration) {
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

// federateOnce scrapes every shard's backend once and digests the
// expositions into per-shard stats. Failures are recorded per shard
// and leave the shard's previous numbers replaced with zeros — the
// row's scrape error, not stale values, tells the story.
func (rt *Router) federateOnce() {
	samples := make([][]metrics.Sample, len(rt.cfg.Backends))
	errs := make([]error, len(rt.cfg.Backends))
	var wg sync.WaitGroup
	for sid, url := range rt.cfg.Backends {
		sid, url := sid, url
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples[sid], errs[sid] = rt.scrapeBackend(url)
		}()
	}
	wg.Wait()

	now := time.Now()
	fresh := make([]shardScrape, len(rt.cfg.Backends))
	for sid, err := range errs {
		if err != nil {
			fresh[sid] = shardScrape{When: now, Err: err.Error(), CacheHitRatio: -1}
			continue
		}
		fresh[sid] = digestShard(samples[sid], now)
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

// ---- /v1/cluster ----

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	rt.ensureFresh(onDemandMaxAge)

	stats := rt.fed.snapshot()
	resp := httpjson.ClusterReply{Shards: make([]httpjson.ClusterShard, len(stats))}
	merged := make(metrics.Buckets)
	for sid, s := range stats {
		row := httpjson.ClusterShard{
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
	resp.Router = httpjson.ClusterRouter{
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
	rt.front.WriteJSON(w, http.StatusOK, resp)
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
