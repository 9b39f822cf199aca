// Command benchmark is the repository's performance benchmark: four
// workloads, checked against an oracle, reporting the end-to-end
// metrics named in BENCHMARK.json — or, with -trace 1, the per-layer
// ones. See README.md in this directory.
//
// Run it from this directory: go run . -workload served
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	repeat   int
	out      string
	commit   string
	check    bool
	spec     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "lib-query, served, cluster or churn (empty: all four in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: query pools, draw order, probes (the datasets and churn's update stream are fixed)")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase; churn does 96 epochs per second instead")
	flag.IntVar(&o.trace, "trace", 0, "1: measure and print the per-layer metrics and write out/trace-<workload>.jsonl")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny datasets and sub-second phases, for tests")
	flag.IntVar(&o.repeat, "repeat", 1, "run N times on seeds seed..seed+N-1 and print median, quartiles and spread per metric")
	flag.StringVar(&o.out, "out", "", "with -repeat: also write the result set to this file")
	flag.StringVar(&o.commit, "commit", "unknown", "with -repeat: the commit measured, for the result set's header")
	flag.BoolVar(&o.check, "check", false, "compare two result sets (the two arguments) under the bounds in -spec")
	flag.StringVar(&o.spec, "spec", "../BENCHMARK.json", "the benchmark definition")
	flag.Parse()
	out := bufio.NewWriter(os.Stdout)
	err := run(out, o, flag.Args())
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(out *bufio.Writer, o options, args []string) error {
	if o.check {
		if len(args) != 2 {
			return fmt.Errorf("-check takes two result-set files")
		}
		return checkSets(out, o.spec, args[0], args[1])
	}
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	mk := func(seed int64) config {
		if o.smoke {
			return smoke(seed, dir)
		}
		return full(seed, o.seconds, dir)
	}
	trace := o.trace == 1
	if o.repeat > 1 {
		return repeatRuns(out, selected, mk, o.seed, o.repeat, trace, o.commit, o.out)
	}
	var failed error
	for _, w := range selected {
		rep, err := runOnce(out, w, mk(o.seed), trace)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		// One workload's report is out before the next starts.
		if err := out.Flush(); err != nil {
			return err
		}
		if rep.Failed > 0 && failed == nil {
			failed = fmt.Errorf("%s: %d of %d operations failed", w.name, rep.Failed, rep.Attempted)
		}
	}
	return failed
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runOnce runs one workload — the end-to-end pass, or with trace the
// layer pass — prints every metric by name with its unit, and ends with
// the one-line JSON report.
func runOnce(w *bufio.Writer, wl workload, cfg config, trace bool) (report, error) {
	var (
		res *result
		err error
	)
	if trace {
		res, err = runLayers(wl, cfg)
	} else {
		res, err = wl.run(cfg)
	}
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(w, "workload %s seed %d: %d operations, %d failed, %d timed samples\n",
		wl.name, cfg.seed, res.attempted, res.failed, res.samples)
	if res.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", res.firstErr)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	notes := make([]string, 0, len(res.notes))
	for n := range res.notes {
		notes = append(notes, n)
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "  (%s = %.4f)\n", n, res.notes[n])
	}
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rep, nil
}
