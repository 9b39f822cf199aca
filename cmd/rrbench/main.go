// Command rrbench regenerates the paper's evaluation artifacts over the
// calibrated synthetic datasets: Tables 3–6 and Figures 5–7, plus the
// ablations documented in DESIGN.md.
//
// Usage:
//
//	rrbench [-exp all|table3|table4|table5|table6|fig5|fig6|fig7|ablation-forest|ablation-compression|ablation-spareach|ablation-3d|ablation-streaming|latency|negative|update-churn]
//	        [-scale 1.0] [-queries 200] [-seed 1] [-j N] [-datasets foursquare-like,gowalla-like,...]
//	        [-csv figures.csv] [-json bench.json]
//	rrbench -compare baseline.json candidate.json [candidate2.json ...]
//
// -json writes a machine-readable performance report (per dataset and
// method: build time, per-phase build breakdown, index size, latency
// percentiles) regardless of -exp; use it to track regressions across
// commits.
//
// -compare checks candidate reports against a baseline per (dataset,
// method) — best p50 across the candidates — and the exit status is 1
// only when a row regresses beyond -compare-factor AND the
// -compare-floor noise floor. ci.sh compares its smoke report with
// itself: a schema check, plus the mmap-vs-decode load-time gate over
// the report's own cold-start rows.
//
// Absolute latencies depend on the host; the paper's findings are about
// ordering and trend shapes, which EXPERIMENTS.md records.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: all, table3, table4, table5, table6, fig5, fig6, fig7, ablation-forest, ablation-compression, ablation-spareach, ablation-3d, ablation-streaming, latency, negative, update-churn, cold-start")
		scale    = flag.Float64("scale", 1.0, "dataset scale (1.0 ≈ 1% of the paper's sizes)")
		queries  = flag.Int("queries", 200, "queries averaged per data point (paper: 1000)")
		seed     = flag.Int64("seed", 1, "random seed for datasets and workloads")
		datasets = flag.String("datasets", "", "comma-separated preset subset (default: all four)")
		csvPath  = flag.String("csv", "", "also write figure series to this CSV file (tidy long format)")
		jsonPath = flag.String("json", "", "write a machine-readable perf report (build/size/latency per method) to this file")
		par      = flag.Int("j", runtime.NumCPU(), "worker bound per index build (1 = sequential; builds are deterministic at any setting)")

		compare       = flag.String("compare", "", "baseline perf report: compare the candidate report arguments against it and exit nonzero on p50 regressions")
		compareFactor = flag.Float64("compare-factor", 3.0, "with -compare, the p50 ratio a row must exceed to fail")
		compareFloor  = flag.Float64("compare-floor", 25, "with -compare, the absolute p50 increase in µs a row must also exceed to fail")
	)
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, flag.Args(), *compareFactor, *compareFloor))
	}

	cfg := bench.Config{
		Scale:       *scale,
		Seed:        *seed,
		Queries:     *queries,
		Parallelism: *par,
		Out:         os.Stdout,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	fmt.Printf("rrbench: scale=%.2f queries=%d seed=%d\n", *scale, *queries, *seed)
	s := bench.NewSuite(cfg)
	if len(s.Datasets()) == 0 {
		fmt.Fprintln(os.Stderr, "rrbench: no datasets selected (check -datasets names)")
		os.Exit(2)
	}

	run := func(name string, fn func()) {
		if *exp == "all" || *exp == name {
			fn()
		}
	}
	known := map[string]bool{
		"all": true, "table3": true, "table4": true, "table5": true,
		"table6": true, "fig5": true, "fig6": true, "fig7": true,
		"ablation-forest": true, "ablation-compression": true, "ablation-spareach": true, "ablation-3d": true, "latency": true, "negative": true, "ablation-streaming": true, "update-churn": true, "cold-start": true,
	}
	if !known[*exp] {
		fmt.Fprintf(os.Stderr, "rrbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	var figures = map[string][]bench.FigureResult{}
	run("table3", func() { s.Table3() })
	// Tables 4 and 5 come from the same builds.
	if *exp == "all" || *exp == "table4" || *exp == "table5" {
		s.Table4And5()
	}
	run("table6", func() { s.Table6() })
	run("fig5", func() { figures["fig5"] = s.Figure5() })
	run("fig6", func() { figures["fig6"] = s.Figure6() })
	run("fig7", func() { figures["fig7"] = s.Figure7() })
	run("ablation-forest", func() { s.AblationForest() })
	run("ablation-compression", func() { s.AblationCompression() })
	run("ablation-spareach", func() { s.AblationSpaReach() })
	run("ablation-3d", func() { s.Ablation3DBackend() })
	run("ablation-streaming", func() { s.AblationStreaming() })
	run("latency", func() { s.LatencyProfile() })
	run("negative", func() { s.NegativeProfile() })
	run("update-churn", func() { s.UpdateChurn() })
	run("cold-start", func() { s.ColdStart() })
	if *exp == "all" {
		s.PositiveRates()
	}
	if *csvPath != "" && len(figures) > 0 {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrbench: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteFiguresCSV(f, figures); err != nil {
			_ = f.Close()
			fmt.Fprintf(os.Stderr, "rrbench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rrbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rrbench: figure data written to %s\n", *csvPath)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrbench: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WritePerfJSON(f, s.PerfReport()); err != nil {
			_ = f.Close()
			fmt.Fprintf(os.Stderr, "rrbench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rrbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rrbench: perf report written to %s\n", *jsonPath)
	}
}
