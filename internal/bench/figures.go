package bench

import (
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/workload"
)

// Series is one plotted line: average query latency per x-axis value.
type Series struct {
	Method core.Method
	// Policy is the SCC spatial policy, "replicate" or "mbr".
	Policy string
	// Points maps x-label ("5%", "50-99", "0.01%") to the average
	// per-query latency.
	Points map[string]time.Duration
}

// FigureResult holds all series of one subplot.
type FigureResult struct {
	Dataset string
	XAxis   string // "extent", "degree" or "selectivity"
	Labels  []string
	Series  []Series
}

// varyingWorkloads enumerates the paper's three x-axes with the other
// parameters held at their defaults (§6.1).
func (s *Suite) varyingWorkloads(gen *workload.Generator, xaxis string) (labels []string, batches [][]workload.Query) {
	n := s.cfg.Queries
	switch xaxis {
	case "extent":
		for _, pct := range workload.Extents {
			labels = append(labels, fmtPct(pct))
			batches = append(batches, gen.Batch(n, pct, workload.DefaultDegreeBucket))
		}
	case "degree":
		for _, b := range workload.DegreeBuckets {
			labels = append(labels, b.String())
			batches = append(batches, gen.Batch(n, workload.DefaultExtent, b))
		}
	case "selectivity":
		for _, sel := range workload.Selectivities {
			labels = append(labels, fmtPct(sel))
			batches = append(batches, gen.SelectivityBatch(n, sel, workload.DefaultDegreeBucket))
		}
	default:
		panic("bench: unknown x-axis " + xaxis)
	}
	return labels, batches
}

func fmtPct(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) + "%" }

// figureArm is one plotted engine: the method and policy its series
// names, and the engine measured.
type figureArm struct {
	method core.Method
	policy string
	engine interface{ RangeReach(int, geom.Rect) bool }
}

// runFigure measures the arms over the given x-axis of one network's
// workload generator; name labels the network in the result.
func (s *Suite) runFigure(name string, gen *workload.Generator, xaxis string, arms []figureArm) FigureResult {
	labels, batches := s.varyingWorkloads(gen, xaxis)
	result := FigureResult{Dataset: name, XAxis: xaxis, Labels: labels}
	for _, arm := range arms {
		series := Series{Method: arm.method, Policy: arm.policy, Points: make(map[string]time.Duration)}
		for i, batch := range batches {
			series.Points[labels[i]] = avgQueryTime(arm.engine, batch)
		}
		result.Series = append(result.Series, series)
	}
	return result
}

func (s *Suite) printFigure(title string, results []FigureResult, withPolicy bool) {
	s.printf("\n== %s ==\n", title)
	for _, fr := range results {
		s.printf("\n-- %s, varying %s (avg query time over %d queries) --\n",
			fr.Dataset, fr.XAxis, s.cfg.Queries)
		s.printf("%-28s", "method")
		for _, l := range fr.Labels {
			s.printf(" %12s", l)
		}
		s.printf("\n")
		for _, series := range fr.Series {
			name := series.Method.String()
			if withPolicy {
				name += "/" + series.Policy
			}
			s.printf("%-28s", name)
			for _, l := range fr.Labels {
				s.printf(" %12s", fmtDuration(series.Points[l]))
			}
			s.printf("\n")
		}
	}
}

// fig5Shares are the shares of checking-in users that
// dataset.WithUserPoints gives a point for Figure 5. Share 0 is the
// preset as generated: every spatial component is one venue, so the two
// policies index the same objects and the figure's premise is absent.
var fig5Shares = []float64{0, 0.1, 0.5}

// Figure5 compares the library's Replicate (non-MBR) SpaReach-INT with
// its MBR arm over query extent and degree (paper Figure 5, which omits
// the other methods as alike) on every preset at every fig5Shares. First
// it prints each network's spatial components, the largest one's points,
// 3DReach's tile entries (one per spatial vertex) per spatial component,
// and each arm's bytes and build time.
func (s *Suite) Figure5() []FigureResult {
	s.printf("\n== Figure 5: handling spatial SCCs (non-MBR vs MBR), users with points ==\n")
	s.printf("%-22s %12s %8s %10s %12s %10s %12s %10s\n",
		"network", "spatial SCCs", "largest", "tile/comp", "replicate", "build", "mbr", "build")
	var results []FigureResult
	for _, net := range s.nets {
		for _, share := range fig5Shares {
			un := dataset.WithUserPoints(net, share, s.cfg.Seed)
			name := net.Name + "@" + strconv.FormatFloat(share, 'g', -1, 64)
			prep := dataset.Prepare(un)
			comps, largest := 0, 0
			for c := range prep.NumComponents() {
				if n := len(prep.SpatialMembers(c)); n > 0 {
					comps++
					largest = max(largest, n)
				}
			}
			// BuildMethod fails only for an unknown method.
			rep, _ := core.BuildMethod(prep, core.MethodSpaReachINT, core.BuildOptions{Parallelism: s.cfg.Parallelism})
			mbr, mbrBuild := buildMBRArm(prep, mbrReach[core.MethodSpaReachINT], s.cfg.Parallelism)
			s.printf("%-22s %12d %8d %10.2f %12s %10s %12s %10s\n", name, comps, largest,
				float64(un.NumSpatial())/float64(comps), fmtBytes(rep.Bytes), fmtDuration(rep.BuildTime),
				fmtBytes(mbr.MemoryBytes()), fmtDuration(mbrBuild))
			gen := workload.NewGenerator(un, s.cfg.Seed+100)
			arms := []figureArm{
				{core.MethodSpaReachINT, "replicate", rep.Engine},
				{core.MethodSpaReachINT, "mbr", mbr},
			}
			for _, axis := range []string{"extent", "degree"} {
				results = append(results, s.runFigure(name, gen, axis, arms))
			}
		}
	}
	s.printFigure("Figure 5: query time, non-MBR vs MBR", results, true)
	return results
}

// Figure6 compares the two spatial-first methods, SpaReach-BFL and
// SpaReach-INT (paper Figure 6).
func (s *Suite) Figure6() []FigureResult {
	return s.methodFigure("Figure 6: determining the best SpaReach", core.MethodSpaReachBFL, core.MethodSpaReachINT)
}

// Figure7 is the main comparison: SpaReach-BFL, GeoReach, SocReach,
// 3DReach and 3DReach-Rev (paper Figure 7).
func (s *Suite) Figure7() []FigureResult {
	return s.methodFigure("Figure 7: comparing all evaluation methods", core.MethodSpaReachBFL,
		core.MethodGeoReach, core.MethodSocReach, core.MethodThreeDReach, core.MethodThreeDReachRev)
}

// methodFigure measures the library engines of the methods over every
// x-axis on every dataset and prints them under title.
func (s *Suite) methodFigure(title string, methods ...core.Method) []FigureResult {
	var results []FigureResult
	for ds, net := range s.nets {
		var arms []figureArm
		for _, m := range methods {
			arms = append(arms, figureArm{m, "replicate", s.engine(ds, m).Engine})
		}
		for _, axis := range []string{"extent", "degree", "selectivity"} {
			results = append(results, s.runFigure(net.Name, s.gens[ds], axis, arms))
		}
	}
	s.printFigure(title, results, false)
	return results
}

// PositiveRates reports the share of TRUE answers in the default
// workload per dataset — a sanity check that negative queries (the
// methods' worst case) are exercised.
func (s *Suite) PositiveRates() map[string]float64 {
	out := make(map[string]float64)
	s.printf("\n== Workload positive-answer rates (default parameters) ==\n")
	for ds := range s.nets {
		qs := s.gens[ds].Batch(s.cfg.Queries, workload.DefaultExtent, workload.DefaultDegreeBucket)
		res := s.engine(ds, core.MethodThreeDReach)
		rate := float64(positives(res.Engine, qs)) / float64(len(qs))
		out[s.nets[ds].Name] = rate
		s.printf("%-16s %.1f%% positive\n", s.nets[ds].Name, 100*rate)
	}
	return out
}
