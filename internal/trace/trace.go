// Package trace is the query-observability substrate of the library: a
// lightweight, allocation-free instrumentation hook that every
// RangeReach evaluation method threads through its stages. It exists so
// that performance claims — "3DReach visits fewer index nodes than
// SpaReach", "SocReach enumerates fewer descendants after compression"
// — can be measured per query instead of inferred from wall-clock time,
// mirroring how the paper's §6 argues with probe and node counts.
//
// The central type is Span. A nil *Span is the disabled state: every
// method on it is safe to call and reduces to a single predictable
// nil-check branch, so the un-traced hot path (Index.RangeReach) pays
// effectively nothing. Callers that want stats allocate a Span on the
// stack (or reuse one after Reset) and pass its address down; nothing
// in this package allocates after that.
package trace

import "time"

// Counters is the set of per-query work counters the evaluation methods
// maintain. Which counters a method moves depends on its algorithm;
// DESIGN.md §9 tabulates the mapping. All counts are per single query.
type Counters struct {
	// Labels is the number of interval labels inspected: the query
	// vertex's label set (3DReach: one cuboid each; SocReach: one range
	// scan each) plus, for interval-probed methods (SpaReach-INT), the
	// label sets consulted by reachability probes.
	Labels int64
	// IndexNodes is the number of internal spatial-index nodes expanded
	// (R-tree nodes whose bounds intersect the query, tile slabs).
	IndexNodes int64
	// IndexLeaves is the number of spatial-index leaves expanded (R-tree
	// leaf nodes, tile cells).
	IndexLeaves int64
	// IndexEntries is the number of leaf entries tested against the
	// query region (points, rectangles, or 3DReach-Rev's segments).
	IndexEntries int64
	// Overlay is the part of IndexEntries that the dynamic engine tested
	// in its overlay — venue entries kept beside the base tiles, bucketed
	// by grid cell — rather than in a tile cell.
	Overlay int64
	// Candidates is the number of candidate vertices produced by the
	// spatial phase and considered for reachability probing (SpaReach).
	Candidates int64
	// ReachProbes is the number of reachability probes GReach(v, u)
	// issued (SpaReach variants).
	ReachProbes int64
	// GraphVisited is the number of graph vertices expanded by
	// traversals: NaiveBFS's search, GeoReach's SPA-graph walk and the
	// pruned-DFS fallback inside BFL probes.
	GraphVisited int64
	// Enumerated is the number of descendants enumerated from the
	// interval labels (SocReach's range scans).
	Enumerated int64
	// Members is the number of exact member-geometry verifications —
	// per-vertex point/rect tests performed after an index or label hit
	// (SocReach's and GeoReach's witness tests).
	Members int64
}

// Add accumulates other into c (used when aggregating spans).
func (c *Counters) Add(other Counters) {
	c.Labels += other.Labels
	c.IndexNodes += other.IndexNodes
	c.IndexLeaves += other.IndexLeaves
	c.IndexEntries += other.IndexEntries
	c.Overlay += other.Overlay
	c.Candidates += other.Candidates
	c.ReachProbes += other.ReachProbes
	c.GraphVisited += other.GraphVisited
	c.Enumerated += other.Enumerated
	c.Members += other.Members
}

// Stage identifies one evaluation stage for duration accounting. Every
// method maps its phases onto this shared vocabulary so per-stage
// latency can be compared across methods.
type Stage uint8

const (
	// StageLabels is label-set lookup and per-label bookkeeping.
	StageLabels Stage = iota
	// StageSpatial is spatial-index search (2D or 3D).
	StageSpatial
	// StageReach is reachability probing (SpaReach phase 2).
	StageReach
	// StageVerify is exact member-geometry verification.
	StageVerify
	// StageTraverse is graph traversal (NaiveBFS, GeoReach).
	StageTraverse
	// StageEnumerate is descendant enumeration (SocReach).
	StageEnumerate

	// NumStages is the number of stages; Span duration arrays use it.
	NumStages
)

// String implements fmt.Stringer with the labels used in metrics and
// EXPLAIN output.
func (st Stage) String() string {
	switch st {
	case StageLabels:
		return "labels"
	case StageSpatial:
		return "spatial"
	case StageReach:
		return "reach"
	case StageVerify:
		return "verify"
	case StageTraverse:
		return "traverse"
	case StageEnumerate:
		return "enumerate"
	default:
		return "unknown"
	}
}

// Span collects the counters and per-stage durations of one query
// evaluation. The zero value is ready to use; a nil *Span disables
// collection (every method nil-checks and returns).
type Span struct {
	Counters
	// Durations accumulates wall-clock time per stage. Stages a method
	// does not have stay zero. Nested stages are not double-counted:
	// engines time disjoint phases only.
	Durations [NumStages]time.Duration
	// Plan names the member engine an Auto composite routed the query
	// to; empty for every other engine.
	Plan string
}

// SetPlan records the routed member's name. A no-op on a nil span, so
// engines can call it unconditionally.
func (s *Span) SetPlan(method string) {
	if s != nil {
		s.Plan = method
	}
}

// Reset clears the span for reuse (pooled spans in the server).
func (s *Span) Reset() { *s = Span{} }

// Enabled reports whether the span collects (s != nil). Engines use it
// to skip trace-only work that a plain counter method can't express.
func (s *Span) Enabled() bool { return s != nil }

// AddLabels counts n inspected interval labels.
func (s *Span) AddLabels(n int) {
	if s != nil {
		s.Labels += int64(n)
	}
}

// IncNode counts one expanded internal index node.
func (s *Span) IncNode() {
	if s != nil {
		s.IndexNodes++
	}
}

// IncLeaf counts one expanded index leaf (or grid bucket).
func (s *Span) IncLeaf() {
	if s != nil {
		s.IndexLeaves++
	}
}

// AddEntries counts n leaf entries tested against the query.
func (s *Span) AddEntries(n int) {
	if s != nil {
		s.IndexEntries += int64(n)
	}
}

// AddOverlay counts n overlay entries tested against the query: into
// IndexEntries like any tested entry, and into Overlay.
func (s *Span) AddOverlay(n int) {
	if s != nil {
		s.IndexEntries += int64(n)
		s.Overlay += int64(n)
	}
}

// IncCandidate counts one spatial candidate considered for probing.
func (s *Span) IncCandidate() {
	if s != nil {
		s.Candidates++
	}
}

// IncReachProbe counts one issued reachability probe.
func (s *Span) IncReachProbe() {
	if s != nil {
		s.ReachProbes++
	}
}

// IncGraphVisited counts one graph vertex expanded by a traversal.
func (s *Span) IncGraphVisited() {
	if s != nil {
		s.GraphVisited++
	}
}

// AddEnumerated counts n descendants enumerated from labels.
func (s *Span) AddEnumerated(n int) {
	if s != nil {
		s.Enumerated += int64(n)
	}
}

// IncMember counts one exact member-geometry verification.
func (s *Span) IncMember() {
	if s != nil {
		s.Members++
	}
}

// Start returns the current time when the span is enabled and the zero
// time otherwise — the disabled path never calls time.Now. Pair with
// End:
//
//	t := sp.Start()
//	... stage work ...
//	sp.End(trace.StageSpatial, t)
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// End accumulates the elapsed time since start into the stage. A no-op
// on a nil span.
func (s *Span) End(st Stage, start time.Time) {
	if s != nil {
		s.Durations[st] += time.Since(start)
	}
}
