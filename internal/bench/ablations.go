package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// AblationCompression measures the effect of label compression on
// SocReach (the engine whose query cost is directly proportional to
// label-set sizes): query time and index footprint with and without the
// final absorb/merge pass of Algorithm 1 (lines 25–26).
func (s *Suite) AblationCompression() {
	s.printf("\n== Ablation: label compression (SocReach) ==\n")
	s.printf("%-16s %14s %14s %14s %14s\n",
		"dataset", "compressed", "qtime", "uncompressed", "qtime")
	for ds := range s.nets {
		qs := s.gens[ds].Batch(s.cfg.Queries, workload.DefaultExtent, workload.DefaultDegreeBucket)
		withC := core.NewSocReach(s.preps[ds], core.SocReachOptions{})
		withoutC := core.NewSocReach(s.preps[ds], core.SocReachOptions{SkipCompression: true})
		s.printf("%-16s %14s %14s %14s %14s\n",
			s.nets[ds].Name,
			fmtBytes(withC.MemoryBytes()), fmtDuration(avgQueryTime(withC, qs)),
			fmtBytes(withoutC.MemoryBytes()), fmtDuration(avgQueryTime(withoutC, qs)))
	}
}

// AblationSpaReach compares every reachability backend the spatial-first
// method can probe through: BFL and interval labels (the paper's two),
// plus PLL (the 2-hop variant of [47], §2.2.1). Reported per backend:
// index size, build time and average query time on the default workload.
func (s *Suite) AblationSpaReach() {
	methods := []core.Method{core.MethodSpaReachBFL, core.MethodSpaReachINT, core.MethodSpaReachPLL}
	s.printf("\n== Ablation: SpaReach reachability backends ==\n")
	for ds := range s.nets {
		qs := s.gens[ds].Batch(s.cfg.Queries, workload.DefaultExtent, workload.DefaultDegreeBucket)
		s.printf("\n-- %s --\n", s.nets[ds].Name)
		s.printf("%-18s %12s %12s %12s\n", "backend", "index", "build", "qtime")
		for _, m := range methods {
			res := s.engine(ds, m, dataset.Replicate)
			s.printf("%-18s %12s %12s %12s\n",
				m.String(), fmtBytes(res.Bytes), fmtDuration(res.BuildTime),
				fmtDuration(avgQueryTime(res.Engine, qs)))
		}
	}
}

// AblationStreaming quantifies how much of SpaReach's selectivity
// sensitivity is the two-phase materialization the original algorithm
// of [47] prescribes, by comparing it with the single-pass variant that
// probes inside the R-tree traversal and stops at the first witness.
func (s *Suite) AblationStreaming() {
	s.printf("\n== Ablation: SpaReach-BFL materialized (paper) vs streaming ==\n")
	s.printf("%-16s %14s %14s %14s %14s\n",
		"dataset", "5% extent", "(streaming)", "20% extent", "(streaming)")
	for ds := range s.nets {
		faithful := s.engine(ds, core.MethodSpaReachBFL, dataset.Replicate).Engine
		streaming := core.NewSpaReachBFL(s.preps[ds], core.SpaReachOptions{Streaming: true})
		row := []string{s.nets[ds].Name}
		for _, extent := range []float64{workload.DefaultExtent, 20} {
			qs := s.gens[ds].Batch(s.cfg.Queries, extent, workload.DefaultDegreeBucket)
			row = append(row,
				fmtDuration(avgQueryTime(faithful, qs)),
				fmtDuration(avgQueryTime(streaming, qs)))
		}
		s.printf("%-16s %14s %14s %14s %14s\n", row[0], row[1], row[2], row[3], row[4])
	}
}

// Ablation3DBackend compares the two 3D point indexes 3DReach can run
// on — R-tree (the paper's choice) and uniform grid (§7.2) — by index
// size, build time and query time on the default workload.
func (s *Suite) Ablation3DBackend() {
	backends := []core.SpatialBackend{core.BackendRTree, core.BackendGrid}
	s.printf("\n== Ablation: 3DReach spatial backend ==\n")
	for ds := range s.nets {
		qs := s.gens[ds].Batch(s.cfg.Queries, workload.DefaultExtent, workload.DefaultDegreeBucket)
		s.printf("\n-- %s --\n", s.nets[ds].Name)
		s.printf("%-10s %12s %12s %12s\n", "backend", "index", "build", "qtime")
		for _, b := range backends {
			start := time.Now()
			e := core.NewThreeDReach(s.preps[ds], core.ThreeDOptions{Backend: b})
			build := time.Since(start)
			s.printf("%-10s %12s %12s %12s\n",
				b.String(), fmtBytes(e.MemoryBytes()), fmtDuration(build),
				fmtDuration(avgQueryTime(e, qs)))
		}
	}
}
