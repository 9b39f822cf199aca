package bench

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// LatencyStats summarizes a per-query latency distribution.
type LatencyStats struct {
	Avg, P50, P95, P99, Max time.Duration
}

// measureLatencies runs the workload and returns the full distribution,
// complementing the paper's averages.
func measureLatencies(e core.Engine, qs []workload.Query) LatencyStats {
	samples := make([]time.Duration, len(qs))
	for i, q := range qs {
		start := time.Now()
		e.RangeReach(q.Vertex, q.Region)
		samples[i] = time.Since(start)
	}
	return statsOf(samples)
}

// statsOf computes the distribution summary of raw per-query samples.
// The slice is sorted in place.
func statsOf(samples []time.Duration) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	var total time.Duration
	for _, d := range samples {
		total += d
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pick := func(q float64) time.Duration {
		return samples[int(q*float64(len(samples)-1))]
	}
	return LatencyStats{
		Avg: total / time.Duration(len(samples)),
		P50: pick(0.50),
		P95: pick(0.95),
		P99: pick(0.99),
		Max: samples[len(samples)-1],
	}
}

// NegativeProfile measures every method on an all-negative workload —
// queries whose answer is FALSE — the worst case the paper highlights
// for SpaReach (all candidates probed), SocReach (all descendants
// tested) and GeoReach (large traversals) in §2.2.3 and §6.4. 3DReach
// must still evaluate every cuboid, but each 3D range query fails fast.
func (s *Suite) NegativeProfile() {
	s.printf("\n== Negative-query profile (answer = FALSE, %d queries, 5%% extent) ==\n",
		s.cfg.Queries)
	for ds := range s.nets {
		oracleEngine := s.engine(ds, core.MethodThreeDReach).Engine
		oracle := func(q workload.Query) bool {
			return oracleEngine.RangeReach(q.Vertex, q.Region)
		}
		qs, matched := s.gens[ds].FilteredBatch(
			s.cfg.Queries, workload.DefaultExtent, workload.DefaultDegreeBucket,
			false, oracle, 0)
		s.printf("\n-- %s (%d/%d strictly negative) --\n", s.nets[ds].Name, matched, len(qs))
		s.printf("%-16s %10s %10s %10s\n", "method", "avg", "p95", "max")
		for _, m := range core.AllMethods {
			res := s.engine(ds, m)
			st := measureLatencies(res.Engine, qs)
			s.printf("%-16s %10s %10s %10s\n",
				m.String(), fmtDuration(st.Avg), fmtDuration(st.P95), fmtDuration(st.Max))
		}
	}
}
