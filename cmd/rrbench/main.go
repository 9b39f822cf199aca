// Command rrbench regenerates the paper's evaluation artifacts over the
// calibrated synthetic datasets: Tables 3–6 and Figures 5–7, plus the
// ablations documented in DESIGN.md, the negative-query profile and the
// update-churn experiment.
//
// Usage:
//
//	rrbench [-exp all] [-scale 1.0] [-queries 200] [-seed 1] [-j N]
//	        [-datasets foursquare-like,gowalla-like,...] [-csv figures.csv]
//
// rrbench -h lists the experiment names -exp accepts.
//
// Absolute latencies depend on the host; the paper's findings are about
// ordering and trend shapes, which EXPERIMENTS.md records. The latency,
// index-size and cold-start measurements tracked across commits live in
// the benchmark module (benchmark/, declared by BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/bench"
)

func main() {
	names := bench.ExperimentNames()
	var (
		exp      = flag.String("exp", "all", "experiment to run: "+strings.Join(names, ", "))
		scale    = flag.Float64("scale", 1.0, "dataset scale (1.0 ≈ 1% of the paper's sizes)")
		queries  = flag.Int("queries", 200, "queries averaged per data point (paper: 1000)")
		seed     = flag.Int64("seed", 1, "random seed for datasets and workloads")
		datasets = flag.String("datasets", "", "comma-separated preset subset (default: all four)")
		csvPath  = flag.String("csv", "", "also write figure series to this CSV file (tidy long format)")
		par      = flag.Int("j", runtime.NumCPU(), "worker bound per index build (1 = sequential; builds are deterministic at any setting)")
	)
	flag.Parse()

	if !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "rrbench: unknown experiment %q (want one of: %s)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
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

	s.Run(*exp)
	if figures := s.Figures(); *csvPath != "" && len(figures) > 0 {
		if err := writeCSV(*csvPath, figures); err != nil {
			fmt.Fprintf(os.Stderr, "rrbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rrbench: figure data written to %s\n", *csvPath)
	}
}

func writeCSV(path string, figures map[string][]bench.FigureResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteFiguresCSV(f, figures); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
