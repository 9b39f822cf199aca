// Command rrserve is a long-lived RangeReach query server: it loads a
// geosocial network (written by rrgen, or any file in the geosocial
// format), builds an index — or loads a persisted one — and answers
// queries over an HTTP/JSON API until terminated.
//
// Usage:
//
//	rrgen -preset gowalla-like -scale 0.5 -o gowalla.gsn
//	rrserve -net gowalla.gsn -method 3dreach -addr :8080
//	rrserve -net gowalla.gsn -load-index gowalla.idx
//	rrserve -net gowalla.gsn -dynamic
//
// Endpoints:
//
//	POST /v1/query   {"vertex":42,"region":[13.3,52.4,13.5,52.6]}
//	POST /v1/batch   {"queries":[{"vertex":42,"region":[...]}, ...]}
//	POST /v1/update  {"op":"add_venue","x":13.4,"y":52.5}   (dynamic mode)
//	GET  /v1/explain?vertex=42&region=13.3,52.4,13.5,52.6
//	GET  /healthz
//	GET  /metrics    Prometheus text format
//
// Static mode (-method) serves reads lock-free; dynamic mode (-dynamic)
// serializes updates onto a single writer and publishes immutable
// snapshots, so queries never block on updates. SIGINT/SIGTERM triggers
// a graceful shutdown that drains in-flight requests.
//
// -check deep-validates the index invariants (interval labels,
// condensation acyclicity, spatial tree containment) after the build or
// load and refuses to start if any fail — useful when serving an index
// file of uncertain provenance. -check-publish extends that to dynamic
// mode at runtime: every snapshot is validated before it is published,
// so a patching bug can never become visible to readers. -full-rebuild-updates
// switches the dynamic index to the full-rebuild reference arm (A/B
// against incremental patching).
//
// Observability: -log picks the request-log format (text, json, off)
// and -slow-query elevates slow requests to warnings. A request with a
// traceparent header, or a GET /v1/explain, runs through the tracing
// path: its per-stage profile rides back in the reply and lands in the
// request log. DESIGN.md §8's census table gives the reason each flag
// and /metrics family is kept.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	rangereach "repro"
	"repro/internal/httpjson"
	"repro/internal/server"
)

// method is registered at package level so the test can read its help
// text, which lists rangereach.MethodNames and nothing typed by hand.
var method = flag.String("method", "3dreach", strings.Join(rangereach.MethodNames(), ", "))

func main() {
	var (
		netPath  = flag.String("net", "", "network file in geosocial format, as rrgen -o writes it (required)")
		dynamic  = flag.Bool("dynamic", false, "serve the updatable 3DReach index (enables /v1/update)")
		loadIdx  = flag.String("load-index", "", "load a persisted index instead of building (-method is ignored)")
		mmapIdx  = flag.Bool("mmap", false, "open -load-index by zero-copy mmap instead of decoding (v2 index files only; the open is one pass over the label and id columns, after -net is loaded and prepared)")
		addr     = flag.String("addr", ":8080", "listen address")
		cacheN   = flag.Int("cache", 4096, "result cache entries (negative disables)")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-request budget")
		maxBody  = flag.Int64("max-body", 8<<20, "request body cap in bytes; oversized bodies get 413 (negative disables)")
		logMode  = flag.String("log", "text", "request log format: text, json, off")
		slowQ    = flag.Duration("slow-query", 250*time.Millisecond, "elevate slower requests to warnings (0 disables)")
		checkIdx = flag.Bool("check", false, "deep-validate index invariants before serving; refuse to start on failure")
		checkPub = flag.Bool("check-publish", false, "deep-validate every dynamic snapshot before publishing it (requires -dynamic); failing batches get 500 and readers keep the last good snapshot")
		fullRB   = flag.Bool("full-rebuild-updates", false, "absorb dynamic updates by full rebuild instead of incremental patching (requires -dynamic); the A/B reference arm")
		shardID  = flag.Int("shard", -1, "shard id this process serves in a cluster; tags its request log and traced replies (-1 = standalone)")
	)
	flag.Parse()

	logger, err := httpjson.NewLogger(*logMode, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrserve: %v\n", err)
		os.Exit(2)
	}

	if *netPath == "" {
		fmt.Fprintln(os.Stderr, "rrserve: need -net (write a network with rrgen -preset <name> -o <file>)")
		os.Exit(2)
	}
	net, err := rangereach.LoadNetwork(*netPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrserve: %v\n", err)
		os.Exit(2)
	}

	cfg := server.Config{
		CacheEntries: *cacheN,
		QueryTimeout: *timeout,
		MaxBodyBytes: *maxBody,
		Logger:       logger,
		SlowQuery:    *slowQ,
	}
	if *shardID >= 0 {
		cfg.ShardID = strconv.Itoa(*shardID)
	}
	if (*checkPub || *fullRB) && !*dynamic {
		fmt.Fprintln(os.Stderr, "rrserve: -check-publish and -full-rebuild-updates require -dynamic")
		os.Exit(2)
	}
	if *mmapIdx && *loadIdx == "" {
		fmt.Fprintln(os.Stderr, "rrserve: -mmap requires -load-index")
		os.Exit(2)
	}
	cfg.CheckPublish = *checkPub
	mode := "static"
	switch {
	case *dynamic:
		mode = "dynamic"
		var opts []rangereach.Option
		if *fullRB {
			opts = append(opts, rangereach.WithFullRebuildUpdates())
		}
		cfg.Dynamic = net.BuildDynamic(opts...)
	case *loadIdx != "":
		if *mmapIdx {
			cfg.Index, err = net.OpenMapped(*loadIdx)
		} else {
			cfg.Index, err = net.LoadIndexFile(*loadIdx)
		}
	default:
		m, ok := rangereach.ParseMethod(*method)
		if !ok {
			fmt.Fprintf(os.Stderr, "rrserve: unknown method %q\n", *method)
			os.Exit(2)
		}
		cfg.Index, err = net.Build(m)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrserve: %v\n", err)
		os.Exit(1)
	}
	if cfg.Index != nil {
		defer cfg.Index.Close()
	}

	if *checkIdx {
		var verr error
		if cfg.Dynamic != nil {
			verr = cfg.Dynamic.Validate()
		} else {
			verr = cfg.Index.Validate()
		}
		if verr != nil {
			fmt.Fprintf(os.Stderr, "rrserve: index failed validation, refusing to serve: %v\n", verr)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "rrserve: index invariants validated")
	}

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrserve: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()

	// On SIGINT/SIGTERM Serve drains the requests in flight; srv.Close
	// (via defer) then waits out any handler the drain's deadline left
	// running and stops the update goroutine, before the index is
	// unmapped.
	banner := fmt.Sprintf("rrserve: serving %q (%s, |V|=%d |E|=%d |P|=%d) on %s",
		net.Name(), mode, net.NumVertices(), net.NumEdges(), net.NumSpatial(), *addr)
	if err := httpjson.Serve("rrserve", *addr, srv.Handler(), banner); err != nil {
		fmt.Fprintf(os.Stderr, "rrserve: %v\n", err)
		os.Exit(1)
	}
}
