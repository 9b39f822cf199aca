package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
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
	a := s.engine(0, core.MethodThreeDReach, dataset.Replicate)
	b := s.engine(0, core.MethodThreeDReach, dataset.Replicate)
	if a.Engine != b.Engine {
		t.Error("engine not cached")
	}
	c := s.engine(0, core.MethodThreeDReach, dataset.MBR)
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

func TestLatencyProfile(t *testing.T) {
	s, buf := tinySuite(t, "weeplaces-like")
	out := s.LatencyProfile()
	stats, ok := out["weeplaces-like"]
	if !ok {
		t.Fatal("missing dataset row")
	}
	for _, m := range core.AllMethods {
		st := stats[m]
		if st.P50 > st.P95 || st.P95 > st.P99 || st.P99 > st.Max {
			t.Errorf("%v: percentiles not monotone: %+v", m, st)
		}
		if st.Avg <= 0 {
			t.Errorf("%v: avg %v", m, st.Avg)
		}
	}
	if !strings.Contains(buf.String(), "p99") {
		t.Error("report missing percentiles")
	}
}

func TestPerfReport(t *testing.T) {
	s, _ := tinySuite(t, "weeplaces-like")
	r := s.PerfReport()
	if r.Schema != PerfSchema {
		t.Errorf("schema = %q", r.Schema)
	}
	if len(r.Datasets) != 1 {
		t.Fatalf("%d datasets", len(r.Datasets))
	}
	ds := r.Datasets[0]
	if ds.Name != "weeplaces-like" || ds.Vertices == 0 || ds.Edges == 0 || ds.SCCs == 0 {
		t.Errorf("dataset stats: %+v", ds)
	}
	if len(ds.Methods) != len(core.AllMethods)+1 { // fixed methods + Auto
		t.Fatalf("%d method rows, want %d", len(ds.Methods), len(core.AllMethods)+1)
	}
	if ds.Methods[len(ds.Methods)-1].Method != core.MethodAuto.String() {
		t.Errorf("last method row = %q, want the Auto composite", ds.Methods[len(ds.Methods)-1].Method)
	}
	if len(ds.RegionSweep) == 0 {
		t.Error("report missing region sweep")
	}
	for _, pt := range ds.RegionSweep {
		if len(pt.Methods) != len(sweepMethods) {
			t.Errorf("sweep point %v: %d methods, want %d", pt.ExtentPct, len(pt.Methods), len(sweepMethods))
		}
		for _, sm := range pt.Methods {
			if sm.P50Micros <= 0 || sm.P95Micros < sm.P50Micros {
				t.Errorf("sweep %v %s: stats not sane: %+v", pt.ExtentPct, sm.Method, sm)
			}
		}
	}
	for _, mr := range ds.Methods {
		if mr.IndexBytes <= 0 {
			t.Errorf("%s: index bytes %d", mr.Method, mr.IndexBytes)
		}
		if mr.AvgMicros <= 0 || mr.MaxMicros < mr.P99Micros || mr.P99Micros < mr.P50Micros {
			t.Errorf("%s: latency row not sane: %+v", mr.Method, mr)
		}
	}

	var buf bytes.Buffer
	if err := WritePerfJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var back PerfReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Datasets[0].Methods[0].Method != ds.Methods[0].Method {
		t.Error("round-trip lost method names")
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
