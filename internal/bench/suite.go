// Package bench is the experiment harness that regenerates the paper's
// evaluation artifacts (§6): Table 3 (datasets), Tables 4 and 5 (index
// size and build time), Table 6 (label counts), Figure 5 (SCC spatial
// policy), Figure 6 (best spatial-first method) and Figure 7 (the main
// method comparison), plus the ablations DESIGN.md calls out. The
// cmd/rrbench tool drives it through the experiment table in
// experiments.go.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/workload"
)

// Config parameterizes a Suite.
type Config struct {
	// Scale scales the synthetic datasets (1 ≈ 1% of the paper's).
	Scale float64
	// Seed drives dataset generation and workloads.
	Seed int64
	// Queries is the number of queries averaged per data point; the
	// paper uses 1000.
	Queries int
	// Datasets restricts the run to the named presets (nil = all four).
	Datasets []string
	// Parallelism bounds the workers used per index build (0 = 1, the
	// sequential path; builds are deterministic at any setting).
	Parallelism int
	// Out receives the report (defaults to io.Discard if nil).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Suite holds the generated datasets and lazily built engines shared by
// all experiments of one run.
type Suite struct {
	cfg   Config
	nets  []*dataset.Network
	preps []*dataset.Prepared
	gens  []*workload.Generator

	engines map[engineKey]core.BuildResult
	// figures collects the figure series of the experiments run through
	// Run, keyed by experiment name, for Figures.
	figures map[string][]FigureResult
}

type engineKey struct {
	dataset int
	method  core.Method
}

// NewSuite generates the configured datasets and prepares workloads.
func NewSuite(cfg Config) *Suite {
	cfg = cfg.withDefaults()
	s := &Suite{
		cfg:     cfg,
		engines: make(map[engineKey]core.BuildResult),
		figures: make(map[string][]FigureResult),
	}
	for _, net := range dataset.Presets(cfg.Scale, cfg.Seed) {
		if len(cfg.Datasets) > 0 && !contains(cfg.Datasets, net.Name) {
			continue
		}
		s.nets = append(s.nets, net)
		s.preps = append(s.preps, dataset.Prepare(net))
		s.gens = append(s.gens, workload.NewGenerator(net, cfg.Seed+100))
	}
	return s
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// Datasets returns the networks of the suite.
func (s *Suite) Datasets() []*dataset.Network { return s.nets }

// engine builds (or returns the cached) library engine of method m on
// dataset ds.
func (s *Suite) engine(ds int, m core.Method) core.BuildResult {
	key := engineKey{ds, m}
	if res, ok := s.engines[key]; ok {
		return res
	}
	res, err := core.BuildMethod(s.preps[ds], m, core.BuildOptions{Parallelism: s.cfg.Parallelism})
	if err != nil {
		panic(fmt.Sprintf("bench: building %v on %s: %v", m, s.nets[ds].Name, err))
	}
	s.engines[key] = res
	return res
}

// avgQueryTime runs the workload through the engine and returns the
// average per-query latency.
func avgQueryTime(e interface{ RangeReach(int, geom.Rect) bool }, qs []workload.Query) time.Duration {
	start := time.Now()
	for _, q := range qs {
		e.RangeReach(q.Vertex, q.Region)
	}
	return time.Since(start) / time.Duration(len(qs))
}

// positives counts TRUE answers, reported alongside latencies so runs
// can confirm the workload exercises both outcomes.
func positives(e core.Engine, qs []workload.Query) int {
	count := 0
	for _, q := range qs {
		if e.RangeReach(q.Vertex, q.Region) {
			count++
		}
	}
	return count
}

func (s *Suite) printf(format string, args ...any) {
	// Progress output is best-effort; a broken Out must not abort a run.
	_, _ = fmt.Fprintf(s.cfg.Out, format, args...)
}

// fmtDuration renders a duration in the unit mix the paper's plots use.
func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fmtBytes renders sizes in MBs with paper-like precision.
func fmtBytes(b int64) string {
	mb := float64(b) / (1024 * 1024)
	switch {
	case mb >= 100:
		return fmt.Sprintf("%.0fMB", mb)
	case mb >= 1:
		return fmt.Sprintf("%.2fMB", mb)
	default:
		return fmt.Sprintf("%.0fKB", float64(b)/1024)
	}
}
