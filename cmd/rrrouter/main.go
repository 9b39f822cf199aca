// Command rrrouter fronts a sharded rrserve cluster: it loads a shard
// map (written by rrgen -shards) and serves the same /v1/query and
// /v1/batch API as rrserve by scatter-gathering over the shards.
//
// Usage:
//
//	rrrouter -shardmap net.shardmap.json -backends http://127.0.0.1:18741,http://127.0.0.1:18742
//
// Shard i is served by the i-th -backends entry, so a launch script
// starts the rrserve holding net.shard<i>.gsn on the i-th address. A
// -backends list whose length is not the map's shard count is refused
// before the router listens. -wait-backends polls every backend's
// /healthz before serving, so the router can be started concurrently
// with the shards.
//
// A query whose answer needs a shard the router cannot reach, and that
// no live shard answers positively, gets a 502: every 200 is exact. A
// shard that fails 3 calls in a row is marked down and skipped for 2s,
// then given one trial call (see /healthz's down list and
// rr_router_shard_down).
//
// Endpoints:
//
//	POST /v1/query      same wire format as rrserve
//	POST /v1/batch      same wire format as rrserve
//	POST /v1/update     same wire format as rrserve; routed to the owning shard(s)
//	GET  /v1/trace/{id} one stitched cluster trace (router + shard spans)
//	GET  /v1/traces     recent retained traces, newest first
//	GET  /v1/cluster    cluster view scraped from the shards (per-shard health, p99, generations)
//	GET  /healthz       topology + per-shard down list
//	GET  /metrics       Prometheus text format (rr_router_*, per-shard labels)
//
// A request carrying a W3C traceparent header is always traced: the
// router propagates the trace id to every shard call, stitches the
// shards' execution stats into one trace, and serves it from
// /v1/trace/{id}. -trace-sample N additionally collects every request
// and retains all slow or errored traces plus 1 in N healthy ones.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/httpjson"
	"repro/internal/router"
	"repro/internal/shard"
)

func main() {
	var (
		mapPath  = flag.String("shardmap", "", "shard map JSON written by rrgen -shards (required)")
		backends = flag.String("backends", "", "comma-separated rrserve base URLs, the i-th serving shard i (required)")
		addr     = flag.String("addr", ":8080", "listen address")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-shard request budget")
		maxBody  = flag.Int64("max-body", 8<<20, "request body cap in bytes; oversized bodies get 413 (negative disables)")
		logMode  = flag.String("log", "text", "request log format: text, json, off")
		waitFor  = flag.Duration("wait-backends", 0, "poll backend /healthz for up to this long before serving (0 disables)")

		traceSample = flag.Int("trace-sample", 0, "ambient trace collection: keep all slow/error traces plus 1 in N healthy ones (0 = only client-forced traceparent requests)")
		traceSlow   = flag.Duration("trace-slow", 100*time.Millisecond, "latency at which a collected trace is always retained")
		traceRing   = flag.Int("trace-ring", 256, "retained traces served by /v1/trace/{id}")
	)
	flag.Parse()

	if *mapPath == "" || *backends == "" {
		fmt.Fprintln(os.Stderr, "rrrouter: need -shardmap and -backends")
		os.Exit(2)
	}
	urls := splitBackends(*backends)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "rrrouter: -backends is empty")
		os.Exit(2)
	}

	m, err := shard.LoadMapFile(*mapPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrrouter: %v\n", err)
		os.Exit(1)
	}

	logger, err := httpjson.NewLogger(*logMode, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrrouter: %v\n", err)
		os.Exit(2)
	}

	rt, err := router.New(router.Config{
		Map:          m,
		Backends:     urls,
		ShardTimeout: *timeout,
		MaxBodyBytes: *maxBody,
		Logger:       logger,
		TraceSample:  *traceSample,
		TraceSlow:    *traceSlow,
		TraceRing:    *traceRing,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrrouter: %v\n", err)
		os.Exit(1)
	}
	if *waitFor > 0 {
		if err := httpjson.WaitHealthy(&http.Client{Timeout: time.Second}, *waitFor, urls...); err != nil {
			fmt.Fprintf(os.Stderr, "rrrouter: %v\n", err)
			os.Exit(1)
		}
	}
	defer rt.Close()

	banner := fmt.Sprintf("rrrouter: routing %q (%d shards, %s partition) across %d backends on %s",
		m.Name, len(m.Shards), m.Strategy, len(urls), *addr)
	if err := httpjson.Serve("rrrouter", *addr, rt.Handler(), banner); err != nil {
		fmt.Fprintf(os.Stderr, "rrrouter: %v\n", err)
		os.Exit(1)
	}
}

func splitBackends(s string) []string {
	var urls []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			urls = append(urls, strings.TrimRight(part, "/"))
		}
	}
	return urls
}
