// Command rrtop is a live terminal inspector for a sharded RangeReach
// cluster. It polls a rrrouter's /healthz, /v1/cluster and /v1/traces
// endpoints and renders one screen per poll: per-shard health, qps
// (computed from queries_total deltas between polls), latency
// percentiles, cache hit ratios, and the most recently retained traces.
//
// Usage:
//
//	rrtop -target http://127.0.0.1:8080
//	rrtop -target http://127.0.0.1:8080 -interval 1s
//	rrtop -target http://127.0.0.1:8080 -once
//
// -once prints a single snapshot without ANSI escapes and exits —
// suitable for scripts, CI logs, and piping to grep. Live mode
// redraws in place every -interval until interrupted.
//
// Exit status: 0 on success, 1 when the target cannot be polled,
// 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/httpjson"
)

// snapshot is one poll of the whole cluster surface.
type snapshot struct {
	At      time.Time
	Health  httpjson.RouterHealthz
	Cluster httpjson.ClusterReply
	Traces  []httpjson.TraceSummary
}

func main() {
	var (
		target   = flag.String("target", "http://127.0.0.1:8080", "rrrouter base URL")
		interval = flag.Duration("interval", 2*time.Second, "poll and redraw period in live mode")
		once     = flag.Bool("once", false, "print one snapshot without ANSI escapes and exit (for scripts and CI)")
		nTraces  = flag.Int("traces", 5, "recent retained traces to list")
	)
	flag.Parse()

	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "rrtop: -interval must be positive")
		os.Exit(2)
	}
	base := strings.TrimRight(*target, "/")
	client := &http.Client{Timeout: 5 * time.Second}

	if *once {
		snap, err := poll(client, base, *nTraces)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrtop: %v\n", err)
			os.Exit(1)
		}
		render(os.Stdout, base, nil, snap, 0)
		return
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	var prev *snapshot
	for {
		snap, err := poll(client, base, *nTraces)
		fmt.Print("\x1b[H\x1b[2J") // cursor home + clear: redraw in place
		if err != nil {
			fmt.Printf("rrtop: %s unreachable: %v\n", base, err)
		} else {
			render(os.Stdout, base, prev, snap, *interval)
			prev = snap
		}
		select {
		case <-sigc:
			fmt.Println()
			return
		case <-ticker.C:
		}
	}
}

// poll fetches one consistent-enough snapshot: three GETs back to
// back. /v1/cluster scrapes the shards on demand when its snapshot is
// older than two seconds, so the shard rows are at most that stale.
func poll(client *http.Client, base string, nTraces int) (*snapshot, error) {
	snap := &snapshot{At: time.Now()}
	if err := httpjson.Fetch(client, base+"/healthz", &snap.Health); err != nil {
		return nil, err
	}
	if err := httpjson.Fetch(client, base+"/v1/cluster", &snap.Cluster); err != nil {
		return nil, err
	}
	var tr httpjson.TracesReply
	if err := httpjson.Fetch(client, base+"/v1/traces?n="+strconv.Itoa(nTraces), &tr); err != nil {
		return nil, err
	}
	snap.Traces = tr.Traces
	return snap, nil
}

// render writes one screenful. prev supplies the queries_total
// baseline for qps; when nil (first frame, -once) the qps column shows
// "-" rather than a number computed from an arbitrary epoch.
func render(w io.Writer, base string, prev, cur *snapshot, interval time.Duration) {
	h, c := cur.Health, cur.Cluster
	_, _ = fmt.Fprintf(w, "rrtop  %s  %s\n", base, cur.At.Format(time.RFC3339))
	_, _ = fmt.Fprintf(w, "cluster   status=%s shards=%d backends=%d vertices=%d strategy=%s down=%d\n",
		h.Status, h.Shards, h.Backends, h.Vertices, h.Strategy, len(h.Down))
	_, _ = fmt.Fprintf(w, "router    reqs=%d errs=%d inflight=%d p50=%s p99=%s early_exit=%d pruned=%d traces=%d kept=%d\n",
		c.Router.Requests, c.Router.Errors, c.Router.Inflight,
		fmtMicros(c.Router.P50Micros), fmtMicros(c.Router.P99Micros),
		c.Router.EarlyExits, c.Router.Pruned,
		c.Router.Traces, c.Router.TracesKept)
	_, _ = fmt.Fprintf(w, "merged    cluster_p99=%s\n\n", fmtMicros(c.ClusterP99Micros))

	// Per-shard table. Columns are fixed-width so live redraws do not
	// shimmer as values change length.
	_, _ = fmt.Fprintf(w, "%-5s %-28s %-7s %8s %10s %8s %6s %9s %9s %7s\n",
		"shard", "backend", "health", "qps", "queries", "inflight", "hit%", "p50", "p99", "age")
	prevQ := map[int]int64{}
	if prev != nil {
		for _, s := range prev.Cluster.Shards {
			prevQ[s.ID] = s.Queries
		}
	}
	for _, s := range c.Shards {
		health := "up"
		switch {
		case s.Down:
			health = "DOWN"
		case s.ScrapeError != "":
			health = "scrape!"
		}
		qps := "-"
		if q, ok := prevQ[s.ID]; ok && interval > 0 && s.Queries >= q {
			qps = fmt.Sprintf("%.1f", float64(s.Queries-q)/interval.Seconds())
		}
		hit := "-"
		if s.CacheHitRatio >= 0 {
			hit = fmt.Sprintf("%.1f", s.CacheHitRatio*100)
		}
		age := "-"
		if s.ScrapeAgeMillis >= 0 {
			age = (time.Duration(s.ScrapeAgeMillis) * time.Millisecond).Truncate(100 * time.Millisecond).String()
		}
		_, _ = fmt.Fprintf(w, "%-5d %-28s %-7s %8s %10d %8d %6s %9s %9s %7s\n",
			s.ID, s.Backend, health, qps, s.Queries, s.Inflight, hit,
			fmtMicros(s.P50Micros), fmtMicros(s.P99Micros), age)
	}

	_, _ = fmt.Fprintf(w, "\nrecent traces (newest first)\n")
	if len(cur.Traces) == 0 {
		_, _ = fmt.Fprintln(w, "  none retained — send a traceparent or set rrrouter -trace-sample")
		return
	}
	for _, t := range cur.Traces {
		_, _ = fmt.Fprintf(w, "  %s  %s  %-5s  %d  %9s  %d spans  %s\n",
			t.Start.Format("15:04:05.000"), t.TraceID, t.Endpoint, t.Status,
			time.Duration(t.DurationNS).Truncate(time.Microsecond), t.Spans, t.Reason)
	}
}

// fmtMicros renders a microsecond value as a human duration; zero and
// negative read as absent.
func fmtMicros(us float64) string {
	if us <= 0 {
		return "-"
	}
	return time.Duration(us * float64(time.Microsecond)).Truncate(time.Microsecond).String()
}
