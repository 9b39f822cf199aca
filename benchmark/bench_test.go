package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// exactCounts are the layer metrics made of program counts: for a fixed
// seed they must repeat exactly.
var exactCounts = []string{
	"core.3dreach.labels_per_query", "core.3dreach.index_nodes_per_query", "core.3dreach.index_entries_per_query",
	"incr.merges", "incr.splits", "incr.cone_relabels", "incr.relabeled_comps", "incr.folds", "incr.full_rebuilds",
	"router.shards_per_query",
}

// smokeRun runs one workload at smoke size and returns the parsed last
// line of its output.
func smokeRun(t *testing.T, name string, trace bool) report {
	t.Helper()
	wl, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if _, err := runOnce(w, wl, smoke(1, t.TempDir()), trace); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s: last line is not the report: %v\n%s", name, err, lines[len(lines)-1])
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", name, rep.Correct, rep.Attempted, rep.Failed, out.String())
	}
	// "Printed exactly once": the human-readable block has one line per
	// reported metric.
	for n := range rep.Metrics {
		if c := strings.Count(out.String(), "\n  "+n+" "); c != 1 {
			t.Errorf("%s: metric %s printed %d times", name, n, c)
		}
	}
	return rep
}

// matches asserts rep holds exactly the metrics want names, each finite
// and in its unit.
func matches(t *testing.T, what string, rep report, want []specMetric) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", what, len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not reported", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s is not finite", what, m.Name)
		}
	}
}

func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the allowed alphabet", m.Name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		rep := smokeRun(t, w.Name, false)
		matches(t, w.Name, rep, sp.EndToEnd)
		for _, m := range sp.EndToEnd {
			if rep.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is zero", w.Name, m.Name)
			}
		}
	}
	a, b := smokeRun(t, "served", true), smokeRun(t, "served", true)
	matches(t, "served -trace", a, sp.PerLayer)
	for _, n := range exactCounts {
		if a.Metrics[n] != b.Metrics[n] {
			t.Errorf("count %s differs between two runs of one seed: %v vs %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4),
// which the acceptance spread is defined by.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
}

// TestCheckVerdicts: a metric whose spread exceeds its bound must be
// reported unresolved, and a real worsening must fail the check.
func TestCheckVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	set := func(vals ...float64) resultSet {
		var s resultSet
		for i, v := range vals {
			s.Runs = append(s.Runs, runRecord{Workload: "w", Seed: int64(i),
				report: report{Correct: true, Attempted: 1, Metrics: metrics{"lat": {Value: v, Unit: "us"}}}})
		}
		return s
	}
	specPath := write("spec.json", spec{
		Workloads: []specEntry{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "lat", Unit: "us", Better: "lower", Bound: 0.10}},
	})
	steady := write("steady.json", set(100, 101, 102, 103, 104))
	slower := write("slower.json", set(120, 121, 122, 123, 124))
	noisy := write("noisy.json", set(60, 80, 100, 120, 140))

	check := func(a, b string) (string, error) {
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		err := checkSets(w, specPath, a, b)
		if ferr := w.Flush(); ferr != nil {
			t.Fatal(ferr)
		}
		return out.String(), err
	}
	if out, err := check(steady, steady); err != nil || !strings.Contains(out, "within bound") {
		t.Errorf("steady vs steady: err %v\n%s", err, out)
	}
	if out, err := check(steady, slower); err == nil || !strings.Contains(out, "REGRESSED") {
		t.Errorf("steady vs slower: want a regression, got err %v\n%s", err, out)
	}
	if out, err := check(steady, noisy); err != nil || !strings.Contains(out, "UNRESOLVED") {
		t.Errorf("steady vs noisy: want unresolved, got err %v\n%s", err, out)
	}
}

// TestImportSurface keeps the benchmark compiling across the planned
// rtree/core/labeling/persist refactors: lower layers are reached only
// through Index, DynamicIndex, Explain and Save/OpenMapped.
func TestImportSurface(t *testing.T) {
	allowed := map[string]bool{
		"repro": true, "repro/internal/server": true, "repro/internal/router": true,
		"repro/internal/shard": true, "repro/internal/dataset": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(path, "/")
			if std := !strings.Contains(first, ".") && first != "repro"; !std && !allowed[path] {
				t.Errorf("%s imports %s, outside the benchmark's import surface", f, path)
			}
		}
	}
}
