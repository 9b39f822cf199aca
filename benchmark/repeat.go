package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []specEntry  `json:"workloads"`
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultSet is N runs of one commit, with enough about the box to judge
// whether two sets are comparable.
type resultSet struct {
	Header setHeader   `json:"header"`
	Runs   []runRecord `json:"runs"`
}

type setHeader struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       int64              `json:"first_seed"`
	Scale      float64            `json:"scale"`
	Seconds    float64            `json:"timed_seconds"`
	Clients    int                `json:"clients"`
	Trace      bool               `json:"trace"`
	Positives  map[string]float64 `json:"positives_share"`
	LoadStart  float64            `json:"loadavg1_start"`
	LoadEnd    float64            `json:"loadavg1_end"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	report
}

// loadavg1 is the 1-minute load average, or -1 where /proc has none.
func loadavg1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f, err := strconv.ParseFloat(strings.Fields(string(raw))[0], 64)
	if err != nil {
		return -1
	}
	return f
}

// repeatRuns runs the selected workloads n times each on consecutive
// seeds, prints per-metric median, quartiles and relative spread, and
// with out set writes the result set there.
func repeatRuns(w *bufio.Writer, sel []workload, mk func(int64) config, seed int64, n int, trace bool, commit, out string) error {
	first := mk(seed)
	set := resultSet{Header: setHeader{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Scale: first.scale, Seconds: first.timed.Seconds(), Clients: clients, Trace: trace,
		Positives: map[string]float64{}, LoadStart: loadavg1(),
	}}
	for i := 0; i < n; i++ {
		for _, wl := range sel {
			cfg := mk(seed + int64(i))
			rep, err := runOnce(bufio.NewWriter(io.Discard), wl, cfg, trace)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, cfg.seed, err)
			}
			set.Runs = append(set.Runs, runRecord{Workload: wl.name, Seed: cfg.seed, report: rep})
			fmt.Fprintf(w, "%s seed %d: %d operations, %d failed\n", wl.name, cfg.seed, rep.Attempted, rep.Failed)
			for key, p := range cfg.pools.byKey {
				set.Header.Positives[key] = p.positiveShare()
			}
		}
	}
	set.Header.LoadEnd = loadavg1()
	printSummary(w, &set)
	if out != "" {
		raw, err := json.MarshalIndent(&set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, r := range set.Runs {
		if r.Failed > 0 {
			return fmt.Errorf("%s seed %d: %d of %d operations failed", r.Workload, r.Seed, r.Failed, r.Attempted)
		}
	}
	return nil
}

// values collects one metric's value over a set's runs of one workload.
func (s *resultSet) values(workload, name string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func (s *resultSet) workloads() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range s.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

func printSummary(w *bufio.Writer, s *resultSet) {
	for _, wl := range s.workloads() {
		names := map[string]string{}
		for _, r := range s.Runs {
			if r.Workload == wl {
				for n, m := range r.Metrics {
					names[n] = m.Unit
				}
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		fmt.Fprintf(w, "\n%s (%d runs)\n  %-40s %14s %14s %14s %8s\n", wl, len(s.values(wl, sorted[0])), "metric", "q1", "median", "q3", "spread")
		for _, n := range sorted {
			xs := s.values(wl, n)
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(w, "  %-40s %14.4f %14.4f %14.4f %8.4f %s\n", n, q1, q2, q3, spread(xs), names[n])
		}
	}
}

// checkSets compares set B against set A on every (workload, end-to-end
// metric) pair under the bounds in the spec. A metric whose own
// run-to-run spread exceeds its bound on either side is unresolved, not
// unchanged: the sets cannot tell.
func checkSets(w *bufio.Writer, specPath, pathA, pathB string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	var sets [2]resultSet
	for i, p := range []string{pathA, pathB} {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := &sets[0], &sets[1]
	fmt.Fprintf(w, "A: %s (%s, load %.2f→%.2f)\nB: %s (%s, load %.2f→%.2f)\n",
		pathA, a.Header.Commit, a.Header.LoadStart, a.Header.LoadEnd,
		pathB, b.Header.Commit, b.Header.LoadStart, b.Header.LoadEnd)
	fmt.Fprintf(w, "%-10s %-16s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse by", "spread A", "spread B", "bound", "verdict")
	regressed := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			xa, xb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return fmt.Errorf("%s/%s is missing from a set", wl.Name, m.Name)
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "within bound"
			switch {
			// setup_s is exempt from the spread rule: a run already
			// reports its median over repeated set-ups.
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "UNRESOLVED (spread exceeds bound)"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-10s %-16s %14.4f %14.4f %+8.2f%% %8.4f %8.4f %6.2f  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, sa, sb, m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
