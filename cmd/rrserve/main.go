// Command rrserve is a long-lived RangeReach query server: it loads a
// geosocial network (or generates a synthetic preset), builds an index
// — or loads a persisted one — and answers queries over an HTTP/JSON
// API until terminated.
//
// Usage:
//
//	rrserve -net foursquare.gsn -method 3dreach -addr :8080
//	rrserve -net foursquare.gsn -load-index foursquare.idx
//	rrserve -synthetic gowalla-like -scale 0.5 -dynamic
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
// Observability: -log picks the request-log format (text, json, off),
// -slow-query elevates slow requests to warnings, -trace-sample N runs
// every Nth query through the tracing path (feeding the
// rr_stage_seconds histograms on /metrics), and -debug-addr exposes
// net/http/pprof on a separate listener that should stay private.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
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
		netPath   = flag.String("net", "", "network file in geosocial format")
		synthetic = flag.String("synthetic", "", "generate a preset instead: foursquare-like, gowalla-like, weeplaces-like, yelp-like")
		scale     = flag.Float64("scale", 0.1, "synthetic preset scale")
		seed      = flag.Int64("seed", 1, "synthetic preset seed")
		dynamic   = flag.Bool("dynamic", false, "serve the updatable 3DReach index (enables /v1/update)")
		loadIdx   = flag.String("load-index", "", "load a persisted index instead of building (-method is ignored)")
		mmapIdx   = flag.Bool("mmap", false, "open -load-index by zero-copy mmap instead of decoding (v2 index files only; the open is one pass over the label and id columns, after -net is loaded and prepared)")
		addr      = flag.String("addr", ":8080", "listen address")
		cacheN    = flag.Int("cache", 4096, "result cache entries (negative disables)")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-request budget")
		par       = flag.Int("parallelism", 0, "static batch fan-out (0 = GOMAXPROCS)")
		maxBody   = flag.Int64("max-body", 8<<20, "request body cap in bytes; oversized bodies get 413 (negative disables)")
		buildJ    = flag.Int("j", 0, "worker bound for the index build (0 = all CPUs, 1 = sequential; the built index is identical at any setting)")
		logMode   = flag.String("log", "text", "request log format: text, json, off")
		slowQ     = flag.Duration("slow-query", 250*time.Millisecond, "elevate slower requests to warnings (0 disables)")
		traceN    = flag.Int("trace-sample", 0, "trace every Nth query into the rr_stage_seconds histograms (0 disables)")
		debugAddr = flag.String("debug-addr", "", "listen address for net/http/pprof (empty disables; keep private)")
		checkIdx  = flag.Bool("check", false, "deep-validate index invariants before serving; refuse to start on failure")
		checkPub  = flag.Bool("check-publish", false, "deep-validate every dynamic snapshot before publishing it (requires -dynamic); failing batches get 500 and readers keep the last good snapshot")
		fullRB    = flag.Bool("full-rebuild-updates", false, "absorb dynamic updates by full rebuild instead of incremental patching (requires -dynamic); the A/B reference arm")
		shardID   = flag.Int("shard", -1, "shard id this process serves in a cluster; tags logs and metrics (-1 = standalone)")
	)
	flag.Parse()

	logger, err := httpjson.NewLogger(*logMode, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrserve: %v\n", err)
		os.Exit(2)
	}

	net, err := loadNetwork(*netPath, *synthetic, *scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrserve: %v\n", err)
		os.Exit(2)
	}

	cfg := server.Config{
		CacheEntries: *cacheN,
		QueryTimeout: *timeout,
		Parallelism:  *par,
		MaxBodyBytes: *maxBody,
		Logger:       logger,
		SlowQuery:    *slowQ,
		TraceSample:  *traceN,
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
	var buildOpts []rangereach.Option
	if *buildJ > 0 {
		buildOpts = append(buildOpts, rangereach.WithParallelism(*buildJ))
	}
	switch {
	case *dynamic:
		mode = "dynamic"
		if *fullRB {
			buildOpts = append(buildOpts, rangereach.WithFullRebuildUpdates())
		}
		cfg.Dynamic = net.BuildDynamic(buildOpts...)
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
		cfg.Index, err = net.Build(m, buildOpts...)
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

	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, debugMux()); err != nil {
				fmt.Fprintf(os.Stderr, "rrserve: debug listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "rrserve: pprof on %s/debug/pprof/\n", *debugAddr)
	}

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

// debugMux serves net/http/pprof on its own mux: the profiling surface
// never touches the query listener, so -addr can stay public while
// -debug-addr binds to localhost.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// loadNetwork resolves -net / -synthetic into a network.
func loadNetwork(path, synthetic string, scale float64, seed int64) (*rangereach.Network, error) {
	switch {
	case path != "" && synthetic != "":
		return nil, errors.New("-net and -synthetic are mutually exclusive")
	case path != "":
		return rangereach.LoadNetwork(path)
	case synthetic != "":
		switch strings.ToLower(synthetic) {
		case "foursquare-like":
			return rangereach.FoursquareLike(scale, seed), nil
		case "gowalla-like":
			return rangereach.GowallaLike(scale, seed), nil
		case "weeplaces-like":
			return rangereach.WeeplacesLike(scale, seed), nil
		case "yelp-like":
			return rangereach.YelpLike(scale, seed), nil
		default:
			return nil, fmt.Errorf("unknown preset %q", synthetic)
		}
	default:
		return nil, errors.New("need -net or -synthetic")
	}
}
