package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/labeling"
	"repro/internal/rtree"
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
		withC := core.NewSocReach(s.preps[ds], core.BuildOptions{})
		withoutC := core.NewSocReach(s.preps[ds], core.BuildOptions{SocReach: core.SocReachOptions{SkipCompression: true}})
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
		streaming := core.NewSpaReachBFL(s.preps[ds], core.BuildOptions{SpaReach: core.SpaReachOptions{Streaming: true}})
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

// Ablation3DIndex compares 3DReach with the paper's (§4.2): post labels
// over every descendant and a 3D R-tree of (x, y, post) points searched
// once per label interval, against the repo's labels over spatial ranks
// and STR tiles in the plane whose cells keep their keys sorted,
// searched once per label. Each column builds its own labeling; stored
// intervals, index size and build time cover labels and point index.
func (s *Suite) Ablation3DIndex() {
	s.printf("\n== Ablation: 3DReach, paper (post labels, 3D R-tree, one cuboid per interval) vs ranked labels over tiles ==\n")
	for ds := range s.nets {
		qs := s.gens[ds].Batch(s.cfg.Queries, workload.DefaultExtent, workload.DefaultDegreeBucket)
		s.printf("\n-- %s --\n", s.nets[ds].Name)
		s.printf("%-22s %12s %12s %12s %12s\n", "index", "intervals", "bytes", "build", "qtime")

		start := time.Now()
		paper := newPaperThreeD(s.preps[ds])
		build := time.Since(start)
		s.printf("%-22s %12d %12s %12s %12s\n", "paper (3D R-tree)", paper.l.TotalLabels(),
			fmtBytes(paper.l.MemoryBytes()+paper.tree.MemoryBytes()), fmtDuration(build), fmtDuration(avgQueryTime(paper, qs)))

		start = time.Now()
		tiled := core.NewThreeDReach(s.preps[ds], core.BuildOptions{})
		build = time.Since(start)
		s.printf("%-22s %12d %12s %12s %12s\n", "ranks + tiles", tiled.Labeling().TotalLabels(),
			fmtBytes(tiled.MemoryBytes()), fmtDuration(build), fmtDuration(avgQueryTime(tiled, qs)))
	}
}

// paperThreeD is the paper's 3DReach over point networks, the reference
// Ablation3DIndex measures the repo's against: the post labeling of
// every descendant, an STR 3D R-tree of (x, y, post) points and one
// cuboid search per interval of L(v). It is not a production path.
type paperThreeD struct {
	prep *dataset.Prepared
	l    *labeling.Labeling
	tree *rtree.Flat[geom.Box3]
}

func newPaperThreeD(prep *dataset.Prepared) *paperThreeD {
	l := labeling.Build(prep.DAG, labeling.Options{})
	var entries []rtree.Entry[geom.Box3]
	for v, spatial := range prep.Net.Spatial {
		if spatial {
			p := prep.Net.Points[v]
			z := float64(l.Post[prep.CompOf(v)])
			entries = append(entries, rtree.Entry[geom.Box3]{Box: geom.Box3FromPoint(geom.Pt3(p.X, p.Y, z)), ID: int32(v)})
		}
	}
	// Point leaves are accounted as 24 bytes, as in the paper's Table 4.
	return &paperThreeD{prep: prep, l: l, tree: rtree.BulkLoad(entries, 0, 24)}
}

func (e *paperThreeD) RangeReach(v int, r geom.Rect) bool {
	for _, iv := range e.l.Label(int(e.prep.CompOf(v))) {
		if _, ok := e.tree.SearchAny(geom.Box3FromRect(r, float64(iv.Lo), float64(iv.Hi))); ok {
			return true
		}
	}
	return false
}
