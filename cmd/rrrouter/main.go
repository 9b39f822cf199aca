// Command rrrouter fronts a sharded rrserve cluster: it loads a shard
// map (written by rrgen -shards) and serves the same /v1/query and
// /v1/batch API as rrserve by scatter-gathering over the shards.
//
// Usage:
//
//	rrrouter -shardmap net.shardmap.json -backends http://127.0.0.1:18741,http://127.0.0.1:18742
//	rrrouter -shardmap net.shardmap.json -backends ... -partial degrade
//
// Shard i is served by the i-th -backends entry, so a launch script
// starts the rrserve holding net.shard<i>.gsn on the i-th address. A
// -backends list whose length is not the map's shard count is refused
// before the router listens. -wait-backends polls every backend's
// /healthz before serving, so the router can be started concurrently
// with the shards.
//
// Endpoints:
//
//	POST /v1/query      same wire format as rrserve
//	POST /v1/batch      same wire format as rrserve (plus "partial" flag)
//	POST /v1/update     same wire format as rrserve; routed to the owning shard(s)
//	GET  /v1/trace/{id} one stitched cluster trace (router + shard spans)
//	GET  /v1/traces     recent retained traces, newest first
//	GET  /v1/cluster    federated cluster view (per-shard health, p99, generations)
//	GET  /healthz       topology + per-shard down list
//	GET  /metrics       Prometheus text format (per-shard labels + federated rr_cluster_*)
//
// A request carrying a W3C traceparent header is always traced: the
// router propagates the trace id to every shard call, stitches the
// shards' execution stats into one trace, and serves it from
// /v1/trace/{id}. -trace-sample N additionally collects every request
// and retains all slow or errored traces plus 1 in N healthy ones.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/shard"
)

func main() {
	var (
		mapPath   = flag.String("shardmap", "", "shard map JSON written by rrgen -shards (required)")
		backends  = flag.String("backends", "", "comma-separated rrserve base URLs, the i-th serving shard i (required)")
		addr      = flag.String("addr", ":8080", "listen address")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-shard request budget")
		partial   = flag.String("partial", "fail", "partial-failure policy when a shard is unreachable: fail, degrade")
		maxBody   = flag.Int64("max-body", 8<<20, "request body cap in bytes; oversized bodies get 413 (negative disables)")
		maxBatch  = flag.Int("max-batch", 8192, "queries accepted per batch request")
		downAfter = flag.Int("down-after", 3, "consecutive failures before a shard is marked down")
		cooldown  = flag.Duration("down-cooldown", 2*time.Second, "how long a marked-down shard is skipped before a half-open trial")
		logMode   = flag.String("log", "text", "request log format: text, json, off")
		waitFor   = flag.Duration("wait-backends", 0, "poll backend /healthz for up to this long before serving (0 disables)")

		traceSample = flag.Int("trace-sample", 0, "ambient trace collection: keep all slow/error traces plus 1 in N healthy ones (0 = only client-forced traceparent requests)")
		traceSlow   = flag.Duration("trace-slow", 100*time.Millisecond, "latency at which a collected trace is always retained")
		traceRing   = flag.Int("trace-ring", 256, "retained traces served by /v1/trace/{id}")
		federate    = flag.Duration("federate", 0, "scrape shard /metrics into rr_cluster_* on this interval (0 = on demand when /v1/cluster is hit)")
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

	policy, err := router.ParsePolicy(*partial)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrrouter: %v\n", err)
		os.Exit(2)
	}
	logger, err := buildLogger(*logMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrrouter: %v\n", err)
		os.Exit(2)
	}

	rt, err := router.New(router.Config{
		Map:          m,
		Backends:     urls,
		ShardTimeout: *timeout,
		Policy:       policy,
		MaxBatch:     *maxBatch,
		MaxBodyBytes: *maxBody,
		DownAfter:    *downAfter,
		DownCooldown: *cooldown,
		Logger:       logger,
		TraceSample:  *traceSample,
		TraceSlow:    *traceSlow,
		TraceRing:    *traceRing,
		Federate:     *federate,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrrouter: %v\n", err)
		os.Exit(1)
	}
	if *waitFor > 0 {
		if err := waitBackends(urls, *waitFor); err != nil {
			fmt.Fprintf(os.Stderr, "rrrouter: %v\n", err)
			os.Exit(1)
		}
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "rrrouter: routing %q (%d shards, %s partition) across %d backends on %s\n",
		m.Name, len(m.Shards), m.Strategy, len(urls), *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "rrrouter: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "rrrouter: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "rrrouter: shutdown: %v\n", err)
		}
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

// waitBackends polls every backend's /healthz until all answer 200 or
// the deadline passes, so `rrrouter -wait-backends 30s` can be launched
// in the same breath as its shards.
func waitBackends(urls []string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: time.Second}
	pending := make(map[string]bool, len(urls))
	for _, u := range urls {
		pending[u] = true
	}
	for len(pending) > 0 {
		for u := range pending {
			resp, err := client.Get(u + "/healthz")
			if err == nil {
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					delete(pending, u)
				}
			}
		}
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			var left []string
			for u := range pending {
				left = append(left, u)
			}
			return fmt.Errorf("backends not healthy after %s: %s", budget, strings.Join(left, ", "))
		}
		time.Sleep(100 * time.Millisecond)
	}
	return nil
}

// buildLogger resolves the -log flag; logs go to stderr.
func buildLogger(mode string) (*slog.Logger, error) {
	switch strings.ToLower(mode) {
	case "off", "none", "":
		return nil, nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log mode %q (want text, json or off)", mode)
	}
}
