package rangereach

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/trace"
)

// QueryStats is the execution profile of a single RangeReach query, as
// produced by the Explain variants. All counters are exact for the work
// the query actually performed — early termination at the first witness
// is visible as small counts.
//
// The counters mean slightly different things per method; see each
// engine's documentation (and DESIGN.md §9) for the exact semantics.
// Counters irrelevant to a method are always zero and omitted from the
// JSON encoding.
type QueryStats struct {
	// Method is the evaluation method that executed the query.
	Method string `json:"method"`
	// Duration is the wall-clock time of the traced execution. Tracing
	// adds counter updates and stage clock reads, so it runs slightly
	// slower than a plain RangeReach.
	Duration time.Duration `json:"duration_ns"`
	// CacheHit reports that the answer came from a result cache and the
	// engine never ran; all work counters are zero then. Only rrserve
	// sets it — direct Explain calls always execute the engine.
	CacheHit bool `json:"cache_hit,omitempty"`

	// Labels is the number of interval labels of the query vertex that
	// were inspected (3DReach: the whole label, searched as one union
	// of cuboids; SocReach: one range scan each; SpaReach-INT/BFL:
	// labels consulted by probes).
	Labels int64 `json:"labels,omitempty"`
	// IndexNodes and IndexLeaves count the internal and leaf nodes of
	// the spatial index whose bounds met the query and were therefore
	// expanded: SpaReach's R-tree nodes and leaves, or the tile slabs
	// and cells of 3DReach, 3DReach-Rev and the dynamic index.
	IndexNodes  int64 `json:"index_nodes,omitempty"`
	IndexLeaves int64 `json:"index_leaves,omitempty"`
	// IndexEntries counts leaf entries tested against a query box,
	// including the dynamic engine's overlay pass.
	IndexEntries int64 `json:"index_entries,omitempty"`
	// OverlayEntries is the part of IndexEntries a dynamic index tested
	// in its overlay (venues patched since the last fold) instead of in
	// its base tiles: entries in the grid cells the region cuts whose
	// post is in the label. Together with Labels — the interval count of
	// the query vertex's label — it says how far updates have degraded
	// the index this query ran on.
	OverlayEntries int64 `json:"overlay_entries,omitempty"`
	// Candidates is the number of spatial candidates SpaReach pulled
	// out of its phase-1 range query.
	Candidates int64 `json:"candidates,omitempty"`
	// ReachProbes is the number of point-to-point reachability probes
	// SpaReach issued against its reachability index.
	ReachProbes int64 `json:"reach_probes,omitempty"`
	// GraphVisited counts graph vertices expanded by a traversal: the
	// Naive BFS, GeoReach's SPA-Graph BFS, or the pruned-DFS fallback
	// inside a BFL probe.
	GraphVisited int64 `json:"graph_visited,omitempty"`
	// Enumerated is the number of descendants SocReach enumerated.
	Enumerated int64 `json:"enumerated,omitempty"`
	// Members counts exact geometry tests of individual spatial
	// vertices (SocReach's and GeoReach's witness tests).
	Members int64 `json:"members,omitempty"`

	// Stages breaks Duration down by pipeline stage. Only stages that
	// ran appear; stage timings are disjoint, but untimed glue code
	// means they need not sum exactly to Duration.
	Stages []StageStat `json:"stages,omitempty"`

	// Plan names the member that answered — only present on MethodAuto
	// indexes.
	Plan *PlanStats `json:"plan,omitempty"`
}

// PlanStats describes how a MethodAuto index routed one query.
type PlanStats struct {
	// Method is the member engine the query was routed to.
	Method string `json:"method"`
}

// StageStat is one pipeline stage's share of a query's execution.
type StageStat struct {
	// Stage names the pipeline stage: "labels", "spatial", "reach",
	// "verify", "traverse" or "enumerate".
	Stage string `json:"stage"`
	// Duration is the total wall-clock time spent in the stage.
	Duration time.Duration `json:"duration_ns"`
}

// statsFromSpan converts a completed trace span into the public stats.
// It takes the span by value: the query has finished, so the copy is
// cheap and there is no nil pointer to guard against.
func statsFromSpan(method string, sp trace.Span, total time.Duration) QueryStats {
	qs := QueryStats{
		Method:       method,
		Duration:     total,
		Labels:       sp.Labels,
		IndexNodes:   sp.IndexNodes,
		IndexLeaves:  sp.IndexLeaves,
		IndexEntries: sp.IndexEntries,
		Candidates:   sp.Candidates,
		ReachProbes:  sp.ReachProbes,
		GraphVisited: sp.GraphVisited,
		Enumerated:   sp.Enumerated,
		Members:      sp.Members,

		OverlayEntries: sp.Overlay,
	}
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		if d := sp.Durations[st]; d > 0 {
			qs.Stages = append(qs.Stages, StageStat{Stage: st.String(), Duration: d})
		}
	}
	if sp.Plan != "" {
		qs.Plan = &PlanStats{Method: sp.Plan}
	}
	return qs
}

// String renders the stats as a compact single-line summary, e.g. for
// logs. Zero counters are omitted.
func (qs QueryStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v", qs.Method, qs.Duration)
	if qs.CacheHit {
		b.WriteString(" cache-hit")
	}
	appendCount := func(name string, v int64) {
		if v != 0 {
			fmt.Fprintf(&b, " %s=%d", name, v)
		}
	}
	appendCount("labels", qs.Labels)
	appendCount("nodes", qs.IndexNodes)
	appendCount("leaves", qs.IndexLeaves)
	appendCount("entries", qs.IndexEntries)
	appendCount("overlay", qs.OverlayEntries)
	appendCount("candidates", qs.Candidates)
	appendCount("probes", qs.ReachProbes)
	appendCount("visited", qs.GraphVisited)
	appendCount("enumerated", qs.Enumerated)
	appendCount("members", qs.Members)
	for _, st := range qs.Stages {
		fmt.Fprintf(&b, " %s=%v", st.Stage, st.Duration)
	}
	if qs.Plan != nil {
		fmt.Fprintf(&b, " plan=%s", qs.Plan.Method)
	}
	return b.String()
}

// Explain answers RangeReach(v, r) like Index.RangeReach and returns
// the execution profile alongside the answer. It panics if v is out of
// range, mirroring RangeReach.
//
// Explain allocates only the returned stats: the engine runs with a
// stack-local trace span, so it is cheap enough for sampled production
// use (rrserve's -trace-sample).
func (idx *Index) Explain(v int, r Rect) (bool, QueryStats) {
	if v < 0 || v >= idx.net.NumVertices() {
		panic(fmt.Sprintf("rangereach: vertex %d out of range [0,%d)", v, idx.net.NumVertices()))
	}
	var sp trace.Span
	start := time.Now()
	ok := idx.engine.RangeReachTraced(v, r.internal(), &sp)
	return ok, statsFromSpan(idx.engine.Name(), sp, time.Since(start))
}

// Explain answers RangeReach(v, r) against the current dynamic state
// and returns the execution profile alongside the answer.
func (idx *DynamicIndex) Explain(v int, r Rect) (bool, QueryStats) {
	var sp trace.Span
	start := time.Now()
	ok := idx.engine.RangeReachTraced(v, r.internal(), &sp)
	return ok, statsFromSpan(idx.engine.Name(), sp, time.Since(start))
}

// Explain answers RangeReach(v, r) against the captured state and
// returns the execution profile alongside the answer.
func (s *DynamicSnapshot) Explain(v int, r Rect) (bool, QueryStats) {
	var sp trace.Span
	start := time.Now()
	ok := s.snap.RangeReachTraced(v, r.internal(), &sp)
	return ok, statsFromSpan("3DReach-Dynamic", sp, time.Since(start))
}
