package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// tinySuite builds a suite small enough for unit tests.
func tinySuite(t *testing.T, datasets ...string) (*Suite, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	s := NewSuite(Config{
		Scale:    0.05,
		Seed:     2,
		Queries:  20,
		Datasets: datasets,
		Out:      &buf,
	})
	return s, &buf
}

func TestSuiteDatasetSelection(t *testing.T) {
	s, _ := tinySuite(t)
	if len(s.Datasets()) != 4 {
		t.Fatalf("default suite has %d datasets", len(s.Datasets()))
	}
	s, _ = tinySuite(t, "gowalla-like")
	if len(s.Datasets()) != 1 || s.Datasets()[0].Name != "gowalla-like" {
		t.Fatal("dataset filter broken")
	}
	s, _ = tinySuite(t, "no-such-dataset")
	if len(s.Datasets()) != 0 {
		t.Fatal("unknown dataset matched")
	}
}

func TestTable3(t *testing.T) {
	s, buf := tinySuite(t, "weeplaces-like")
	rows := s.Table3()
	if len(rows) != 1 {
		t.Fatalf("Table3 returned %d rows", len(rows))
	}
	if rows[0].Vertices == 0 || rows[0].SCCs == 0 {
		t.Error("empty stats")
	}
	if !strings.Contains(buf.String(), "Table 3") {
		t.Error("report missing header")
	}
}

func TestTable4And5(t *testing.T) {
	s, buf := tinySuite(t, "weeplaces-like")
	rows := s.Table4And5()
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	row := rows[0]
	for _, m := range core.AllMethods {
		if row.Bytes[m] <= 0 {
			t.Errorf("%v: bytes %d", m, row.Bytes[m])
		}
		if m.SupportsMBR() && row.MBRBytes[m] <= 0 {
			t.Errorf("%v: MBR bytes missing", m)
		}
		if !m.SupportsMBR() && row.MBRBytes[m] != 0 {
			t.Errorf("%v: unexpected MBR bytes", m)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "Table 5") {
		t.Error("report missing tables")
	}
}

func TestTable6CompressionInvariant(t *testing.T) {
	s, _ := tinySuite(t)
	for _, row := range s.Table6() {
		if row.Compressed > row.Uncompressed {
			t.Errorf("%s: compressed %d > uncompressed %d",
				row.Dataset, row.Compressed, row.Uncompressed)
		}
		if row.RevCompressed > row.RevUncompressed {
			t.Errorf("%s: reversed compressed %d > uncompressed %d",
				row.Dataset, row.RevCompressed, row.RevUncompressed)
		}
	}
}

func TestFiguresProduceSeries(t *testing.T) {
	s, buf := tinySuite(t, "weeplaces-like")
	for name, results := range map[string][]FigureResult{
		"fig5": s.Figure5(),
		"fig6": s.Figure6(),
		"fig7": s.Figure7(),
	} {
		if len(results) == 0 {
			t.Fatalf("%s: no results", name)
		}
		for _, fr := range results {
			if len(fr.Labels) == 0 || len(fr.Series) == 0 {
				t.Fatalf("%s: empty figure %s/%s", name, fr.Dataset, fr.XAxis)
			}
			for _, series := range fr.Series {
				for _, l := range fr.Labels {
					if _, ok := series.Points[l]; !ok {
						t.Fatalf("%s: series %v missing point %q", name, series.Method, l)
					}
				}
			}
		}
	}
	out := buf.String()
	for _, want := range []string{"Figure 5", "Figure 6", "Figure 7", "varying extent"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestEngineCaching(t *testing.T) {
	s, _ := tinySuite(t, "weeplaces-like")
	a := s.engine(0, core.MethodSpaReachINT, dataset.Replicate)
	b := s.engine(0, core.MethodSpaReachINT, dataset.Replicate)
	if a.Engine != b.Engine {
		t.Error("engine not cached")
	}
	c := s.engine(0, core.MethodSpaReachINT, dataset.MBR)
	if a.Engine == c.Engine {
		t.Error("policies share an engine")
	}
}

func TestAblationsRun(t *testing.T) {
	s, buf := tinySuite(t, "weeplaces-like")
	s.AblationForest()
	s.AblationCompression()
	out := buf.String()
	for _, want := range []string{"spanning-forest", "compression"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report missing %q", want)
		}
	}
}

func TestPositiveRates(t *testing.T) {
	s, _ := tinySuite(t, "gowalla-like")
	rates := s.PositiveRates()
	r, ok := rates["gowalla-like"]
	if !ok {
		t.Fatal("missing rate")
	}
	if r < 0 || r > 1 {
		t.Errorf("rate %g out of [0,1]", r)
	}
}

// TestExperimentsTable runs every row of the -exp table on a tiny suite
// and checks that each prints its report header, so a row whose
// experiment panics or prints nothing fails here rather than in a
// full-scale rrbench run.
func TestExperimentsTable(t *testing.T) {
	s, buf := tinySuite(t, "weeplaces-like")
	seen := map[string]bool{}
	for _, e := range experiments {
		for _, name := range e.names {
			if seen[name] || name == "all" {
				t.Fatalf("experiment name %q listed twice", name)
			}
			seen[name] = true
		}
		buf.Reset()
		s.Run(e.names[0])
		if !strings.Contains(buf.String(), "\n== ") {
			t.Errorf("experiment %v printed no header:\n%s", e.names, buf.String())
		}
	}
	if got, want := len(ExperimentNames()), len(seen)+1; got != want {
		t.Errorf("ExperimentNames has %d names, want %d", got, want)
	}
	for _, fig := range []string{"fig5", "fig6", "fig7"} {
		if len(s.Figures()[fig]) == 0 {
			t.Errorf("Run(%q) recorded no figure series", fig)
		}
	}
	buf.Reset()
	s.Run("nope")
	if buf.Len() != 0 {
		t.Errorf("unknown experiment printed %q", buf.String())
	}

	// The percentile summary behind -exp negative and update-churn.
	qs := s.gens[0].Batch(s.cfg.Queries, workload.DefaultExtent, workload.DefaultDegreeBucket)
	for _, m := range core.AllMethods {
		st := measureLatencies(s.engine(0, m, dataset.Replicate).Engine, qs)
		if st.Avg <= 0 || st.P50 > st.P95 || st.P95 > st.P99 || st.P99 > st.Max {
			t.Errorf("%v: latency summary not sane: %+v", m, st)
		}
	}
}

func TestWriteFiguresCSV(t *testing.T) {
	s, _ := tinySuite(t, "weeplaces-like")
	figures := map[string][]FigureResult{"fig5": s.Figure5()}
	var buf bytes.Buffer
	if err := WriteFiguresCSV(&buf, figures); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "figure,dataset,xaxis,x,method,policy,avg_ns" {
		t.Errorf("header = %q", lines[0])
	}
	// 2 series × (5 extents + 5 degree buckets) = 20 rows + header.
	if len(lines) != 21 {
		t.Errorf("csv has %d lines, want 21", len(lines))
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "fig5,weeplaces-like,") {
			t.Errorf("unexpected row %q", line)
		}
	}
}

func TestFormatters(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:  "500ns",
		1500 * time.Nanosecond: "1.50µs",
		2 * time.Millisecond:   "2.00ms",
		3 * time.Second:        "3.00s",
	}
	for d, want := range cases {
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", d, got, want)
		}
	}
	if got := fmtBytes(512); got != "1KB" && got != "0KB" {
		t.Logf("fmtBytes(512) = %q", got)
	}
	if got := fmtBytes(3 << 20); got != "3.00MB" {
		t.Errorf("fmtBytes = %q", got)
	}
	if got := fmtBytes(200 << 20); got != "200MB" {
		t.Errorf("fmtBytes = %q", got)
	}
	if fmtPct(5) != "5%" || fmtPct(0.01) != "0.01%" || fmtPct(0.001) != "0.001%" {
		t.Error("fmtPct wrong")
	}
}
