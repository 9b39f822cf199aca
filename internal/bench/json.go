package bench

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// PerfReport is the machine-readable benchmark artifact behind
// rrbench -json: per dataset and method, the offline costs (build time,
// index size) and the online latency distribution on the default
// workload. The schema field versions the layout so downstream tooling
// can detect changes.
type PerfReport struct {
	Schema      string  `json:"schema"`
	Scale       float64 `json:"scale"`
	Queries     int     `json:"queries"`
	Seed        int64   `json:"seed"`
	Parallelism int     `json:"parallelism,omitempty"`

	Datasets []DatasetReport `json:"datasets"`
	// UpdateChurn carries the dynamic-maintenance experiment when the
	// update-churn experiment ran before the report was emitted.
	UpdateChurn []ChurnReport `json:"update_churn,omitempty"`
	// ColdStart carries the persisted-index load timings: per
	// dataset×method, the streaming-decode load next to the zero-copy
	// mmap open of the same file.
	ColdStart []ColdStartRow `json:"cold_start,omitempty"`
}

// PerfSchema identifies the current PerfReport layout. v2 added the
// Auto composite to the method rows and the region_sweep section; v3
// added the build parallelism and the per-phase build breakdown; v4
// added the update_churn section; v5 added the cold_start section
// (all additive — v2 readers parse v5 reports).
const PerfSchema = "rrbench/v5"

// DatasetReport is one dataset's slice of the report.
type DatasetReport struct {
	Name        string         `json:"name"`
	Vertices    int            `json:"vertices"`
	Edges       int            `json:"edges"`
	Venues      int            `json:"venues"`
	SCCs        int            `json:"sccs"`
	Methods     []MethodReport `json:"methods"`
	RegionSweep []SweepPoint   `json:"region_sweep"`
}

// SweepPoint is one region-extent step of the sweep: the planner's
// routing problem at one selectivity, with the Auto composite measured
// against the fixed methods it routes over.
type SweepPoint struct {
	ExtentPct float64            `json:"extent_pct"`
	Methods   []SweepMethodStats `json:"methods"`
}

// SweepMethodStats is one method's latency distribution at one sweep
// point, in microseconds.
type SweepMethodStats struct {
	Method    string  `json:"method"`
	AvgMicros float64 `json:"avg_us"`
	P50Micros float64 `json:"p50_us"`
	P95Micros float64 `json:"p95_us"`
}

// MethodReport is one method's offline and online costs on a dataset.
// Latencies are in microseconds — the natural unit of the paper's
// figures.
type MethodReport struct {
	Method      string        `json:"method"`
	BuildMillis float64       `json:"build_ms"`
	BuildPhases []PhaseReport `json:"build_phases,omitempty"`
	IndexBytes  int64         `json:"index_bytes"`
	AvgMicros   float64       `json:"avg_us"`
	P50Micros   float64       `json:"p50_us"`
	P95Micros   float64       `json:"p95_us"`
	P99Micros   float64       `json:"p99_us"`
	MaxMicros   float64       `json:"max_us"`
	Positives   int           `json:"positives"`
}

// PhaseReport attributes part of a build to one pipeline phase. Under
// parallel builds phases accumulate work time independently, so their
// sum can exceed the wall-clock build_ms.
type PhaseReport struct {
	Phase  string  `json:"phase"`
	Millis float64 `json:"ms"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// PerfReport measures every method on every configured dataset under
// the default workload and assembles the machine-readable report.
func (s *Suite) PerfReport() PerfReport {
	report := PerfReport{
		Schema:      PerfSchema,
		Scale:       s.cfg.Scale,
		Queries:     s.cfg.Queries,
		Seed:        s.cfg.Seed,
		Parallelism: s.cfg.Parallelism,
	}
	for ds := range s.nets {
		st := s.nets[ds].ComputeStats()
		dr := DatasetReport{
			Name:     s.nets[ds].Name,
			Vertices: st.Vertices,
			Edges:    st.Edges,
			Venues:   st.Venues,
			SCCs:     st.SCCs,
		}
		qs := s.gens[ds].Batch(s.cfg.Queries, workload.DefaultExtent, workload.DefaultDegreeBucket)
		methods := append(append([]core.Method(nil), core.AllMethods...), core.MethodAuto)
		for _, m := range methods {
			res := s.engine(ds, m, dataset.Replicate)
			lat := measureLatencies(res.Engine, qs)
			var phases []PhaseReport
			for _, ph := range res.Phases {
				phases = append(phases, PhaseReport{
					Phase:  ph.Name,
					Millis: float64(ph.Duration.Nanoseconds()) / 1e6,
				})
			}
			dr.Methods = append(dr.Methods, MethodReport{
				Method:      m.String(),
				BuildMillis: float64(res.BuildTime.Nanoseconds()) / 1e6,
				BuildPhases: phases,
				IndexBytes:  res.Bytes,
				AvgMicros:   micros(lat.Avg),
				P50Micros:   micros(lat.P50),
				P95Micros:   micros(lat.P95),
				P99Micros:   micros(lat.P99),
				MaxMicros:   micros(lat.Max),
				Positives:   positives(res.Engine, qs),
			})
		}
		dr.RegionSweep = s.regionSweep(ds)
		report.Datasets = append(report.Datasets, dr)
	}
	report.UpdateChurn = s.churn
	report.ColdStart = s.ColdStart()
	return report
}

// sweepMethods are the fixed engines the Auto composite routes over by
// default, compared against the composite itself. The sweep is the
// planner's acceptance surface: at every extent the adaptive row should
// track the best fixed row.
var sweepMethods = []core.Method{
	core.MethodSocReach, core.MethodThreeDReachRev, core.MethodSpaReachINT, core.MethodAuto,
}

// sweepReps is the best-of repetition count for sweep timings (see
// regionSweep).
const sweepReps = 3

// regionSweep measures the sweep methods across the paper's region
// extents (1–20% of the space per axis). Each extent gets its own query
// batch; engines are reused across extents, so the Auto row's feedback
// loop warms over the sweep exactly as it would in a long-lived server.
//
// The sweep compares methods that sit within tens of nanoseconds of
// each other, so the measurement is interleaved: every method is timed
// (best of sweepReps) on a query before moving to the next query. The
// per-method samples at one sweep point are then taken microseconds —
// not tens of milliseconds — apart, and slow environment noise
// (scheduler interference, CPU frequency and steal on shared hosts)
// hits all methods alike instead of skewing their ratios.
func (s *Suite) regionSweep(ds int) []SweepPoint {
	var points []SweepPoint
	for _, ext := range workload.Extents {
		qs := s.gens[ds].Batch(s.cfg.Queries, ext, workload.DefaultDegreeBucket)
		pt := SweepPoint{ExtentPct: ext}
		engines := make([]core.Engine, len(sweepMethods))
		for mi, m := range sweepMethods {
			engines[mi] = s.engine(ds, m, dataset.Replicate).Engine
			// Warm passes: the first queries at a new extent teach the
			// planner the regime; fixed methods are unaffected. The
			// adaptive engine gets extra passes so its feedback loop and
			// routing lock-on settle before measurement — the steady
			// state a long-lived server would be in.
			passes := 1
			if m == core.MethodAuto {
				passes = 3
			}
			for p := 0; p < passes; p++ {
				for _, q := range qs {
					engines[mi].RangeReach(q.Vertex, q.Region)
				}
			}
		}
		samples := make([][]time.Duration, len(sweepMethods))
		for mi := range samples {
			samples[mi] = make([]time.Duration, 0, len(qs))
		}
		for _, q := range qs {
			for mi := range sweepMethods {
				best := time.Duration(0)
				for rep := 0; rep < sweepReps; rep++ {
					start := time.Now()
					engines[mi].RangeReach(q.Vertex, q.Region)
					d := time.Since(start)
					if rep == 0 || d < best {
						best = d
					}
				}
				samples[mi] = append(samples[mi], best)
			}
		}
		for mi, m := range sweepMethods {
			lat := statsOf(samples[mi])
			pt.Methods = append(pt.Methods, SweepMethodStats{
				Method:    m.String(),
				AvgMicros: micros(lat.Avg),
				P50Micros: micros(lat.P50),
				P95Micros: micros(lat.P95),
			})
		}
		points = append(points, pt)
	}
	return points
}

// WritePerfJSON renders the report as indented JSON.
func WritePerfJSON(w io.Writer, r PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
