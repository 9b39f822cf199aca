package planner

import (
	"math"
	"sync/atomic"

	"repro/internal/geom"
)

// WorkKind selects which work estimate a member engine's cost model
// consumes. Each kind maps to the dominant term of the corresponding
// algorithm's query complexity (paper §3–§5).
type WorkKind uint8

const (
	// WorkDescendants — cost grows with |D(v)|: SocReach enumerates the
	// descendant set, GeoReach's pruning degenerates towards it.
	WorkDescendants WorkKind = iota
	// WorkCandidates — cost grows with |P ∩ R|: the spatial-first
	// SpaReach variants probe reachability once per candidate.
	WorkCandidates
	// WorkCuboids — cost grows with log|P|·(1 + log|L(v)|): 3DReach
	// searches the union of its per-interval cuboids in one tree
	// descent, and each node test on the way binary-searches the label.
	// A one-interval label is the single cuboid's log|P|.
	WorkCuboids
	// WorkPlane — one plane query over the reversed-label segments:
	// the log|P| tree descent. The query early-exits on the first
	// segment cut, so larger regions tend to get *cheaper*, not more
	// expensive — the residual region dependence has no stable sign and
	// is left to the coefficient feedback rather than modeled with a
	// term whose trend would mislead the argmin at regime crossovers.
	WorkPlane
)

// Member describes one engine under the planner: its display name and
// which work estimate drives its cost.
type Member struct {
	Name string
	Kind WorkKind
}

// MaxMembers bounds the composite fan-out; work buffers are
// stack-allocated at this size on the hot path.
const MaxMembers = 8

// DefaultAlpha is the EMA smoothing factor of the feedback loop.
const DefaultAlpha = 0.2

// DefaultExploreEvery routes every Nth query round-robin instead of by
// cost, so rarely-chosen members keep fresh coefficients.
const DefaultExploreEvery = 64

// DefaultReviewEvery is the pinned-mode cadence: once the model pins a
// member, callers may skip estimation entirely, but every Nth query
// should still take the full estimate/observe path so the pin stays
// honest under workload drift.
const DefaultReviewEvery = 16

// DefaultObserveEvery samples feedback on the unpinned full path: only
// every Nth routed query is timed and folded into the EMA. Routing
// quality needs the per-query argmin, but the feedback loop does not
// need every sample — and the two clock reads plus the CAS are the
// dominant cost of the full path, so sampling them keeps mixed regimes
// (where per-query winners genuinely alternate and no pin can form)
// close to the best fixed member.
const DefaultObserveEvery = 4

// DefaultPinnedExploreEvery is the pinned-mode exploration cadence:
// every Nth query routes round-robin to a member other than the pinned
// one so their coefficients keep tracking the live workload. Without
// it, a pinned planner only observes the others once per
// exploreEvery·reviewEvery queries — far too slowly to notice a regime
// change that made one of them the new winner. At 1/32 the probes cost
// well under a percent of throughput (they displace a pinned-member
// call, and only the slowest member at its worst regime is ~20× the
// pinned latency) while halving the time a stale coefficient survives.
const DefaultPinnedExploreEvery = 32

// pinAfter is the number of consecutive identical argmin winners after
// which the model pins. Low enough to reach the fast path quickly on a
// stable workload, high enough that a few noisy wins don't lock in a
// misroute.
const pinAfter = 4

// unpinMargin is the pin hysteresis: a challenger only breaks an
// existing pin when its predicted cost is at least this much cheaper
// (0.85 = 15% cheaper). Near-ties keep the pin — routing to either
// side of a tie costs almost nothing, while flapping between them
// costs the fast path; a flap itself is cheap (a few re-estimated
// queries until the streak re-pins), so the margin stays tight.
const unpinMargin = 0.85

// initialCoef seeds each member at 100ns per work unit — the right
// order of magnitude for in-memory index probes, and immediately
// overwritten by calibration or feedback.
const initialCoef = 1e-7

// Model is the per-engine linear cost model with online feedback:
// predicted seconds = coef · (1 + work). Coefficients live as float64
// bits in atomics so concurrent queries can read and update them
// without locks (same CAS pattern as metrics.Histogram.sum).
type Model struct {
	coefs        []atomic.Uint64
	alpha        float64
	exploreEvery uint64
	tick         atomic.Uint64

	// pinned is the fast-path lock-on: member index + 1, 0 when unpinned.
	// streak packs the last argmin winner (high 32 bits) and how many
	// consecutive times it won (low 32). Both tolerate racy lost updates
	// — pinning is an optimization, never a correctness property.
	pinned atomic.Int32
	streak atomic.Uint64
}

// NewModel returns a model for n members. alpha ≤ 0 selects
// DefaultAlpha; exploreEvery < 0 disables exploration, 0 selects
// DefaultExploreEvery.
func NewModel(n int, alpha float64, exploreEvery int) *Model {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	var every uint64
	switch {
	case exploreEvery < 0:
		every = 0
	case exploreEvery == 0:
		every = DefaultExploreEvery
	default:
		every = uint64(exploreEvery)
	}
	m := &Model{
		coefs:        make([]atomic.Uint64, n),
		alpha:        alpha,
		exploreEvery: every,
	}
	for i := range m.coefs {
		m.coefs[i].Store(math.Float64bits(initialCoef))
	}
	return m
}

// Coef returns member i's current seconds-per-unit coefficient.
func (m *Model) Coef(i int) float64 { return math.Float64frombits(m.coefs[i].Load()) }

// SetCoef overwrites member i's coefficient (calibration, persistence).
func (m *Model) SetCoef(i int, c float64) {
	if c > 0 && !math.IsInf(c, 0) && !math.IsNaN(c) {
		m.coefs[i].Store(math.Float64bits(c))
	}
}

// Predict returns the modeled seconds for member i at the given work.
func (m *Model) Predict(i int, work float64) float64 { return m.Coef(i) * (1 + work) }

// Choose picks the member with the lowest predicted cost for the given
// works, except on exploration ticks where it cycles round-robin. The
// second result reports whether this was an exploration pick.
func (m *Model) Choose(works []float64) (int, bool) {
	t := m.tick.Add(1)
	if m.exploreEvery > 0 && t%m.exploreEvery == 0 {
		return int((t / m.exploreEvery) % uint64(len(works))), true
	}
	best, bestCost := 0, math.Inf(1)
	for i, w := range works {
		if c := m.Predict(i, w); c < bestCost {
			best, bestCost = i, c
		}
	}
	m.notePick(best, works)
	return best, false
}

// notePick tracks the argmin streak behind Pinned: pinAfter consecutive
// identical winners pin the model; a challenger unpins it only when it
// beats the pinned member's prediction by unpinMargin (hysteresis).
// Near-tie losses credit the streak holder instead of resetting it —
// when two members alternate within the margin, the planner should pin
// one of them (either is fine, a tie costs almost nothing) rather than
// pay the full estimation path forever. Exploration picks never reach
// here, so forced round-robin choices cannot break a legitimate pin.
func (m *Model) notePick(w int, works []float64) {
	s := m.streak.Load()
	if holder := int(s >> 32); m.pinned.Load() == 0 &&
		s != 0 && holder != w && holder < len(works) &&
		m.Predict(w, works[w]) >= unpinMargin*m.Predict(holder, works[holder]) {
		// Near-tie while unpinned: the streak survives the coin flip so
		// tie regimes still converge to a pin. While pinned, streaks
		// accumulate honestly — a persistently (even marginally) better
		// challenger takes the pin over via pinAfter without ever
		// passing through an unpinned stretch.
		w = holder
	}
	if int(s>>32) == w {
		c := (s & 0xffffffff) + 1
		m.streak.Store(uint64(w)<<32 | c)
		if c >= pinAfter {
			m.pinned.Store(int32(w) + 1)
		}
		return
	}
	m.streak.Store(uint64(w)<<32 | 1)
	if p := m.pinned.Load(); p > 0 {
		i := int(p) - 1
		if i == w {
			return // the argmin re-confirmed the pinned member
		}
		if i < len(works) &&
			m.Predict(w, works[w]) >= unpinMargin*m.Predict(i, works[i]) {
			return // near-tie: keep the pin, avoid flapping
		}
	}
	m.pinned.Store(0)
}

// Pinned returns the member the model has locked onto, if any. Callers
// on the hot path may route straight to it without estimating, as long
// as they keep feeding full evaluations at some cadence
// (DefaultReviewEvery) so the pin can be revised.
func (m *Model) Pinned() (int, bool) {
	p := m.pinned.Load()
	return int(p) - 1, p > 0
}

// Observe folds one measured query into member i's coefficient with a
// geometric EMA: coef ← coef·(target/coef)^α, target = seconds/(1+work).
// The EMA runs in log space because per-query latencies are heavy-
// tailed: an arithmetic EMA tracks the mean of the samples, so a single
// slow outlier inflates the coefficient by its full magnitude and takes
// many clean samples to decay, while the geometric form tracks the
// median-like center and shifts only by the outlier's ratio, damped.
// A CAS loop keeps concurrent updates lock-free; a failed CAS retries
// against the fresh value.
func (m *Model) Observe(i int, work, seconds float64) {
	if seconds <= 0 || math.IsNaN(seconds) {
		return
	}
	target := seconds / (1 + work)
	for {
		old := m.coefs[i].Load()
		cur := math.Float64frombits(old)
		next := cur * math.Pow(target/cur, m.alpha)
		if m.coefs[i].CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Planner glues the estimators to the cost model for a fixed member
// set. It is safe for concurrent use.
type Planner struct {
	est     *Estimator
	model   *Model
	members []Member
}

// New assembles a planner. members must be 1..MaxMembers entries.
func New(est *Estimator, model *Model, members []Member) *Planner {
	return &Planner{est: est, model: model, members: members}
}

// Members returns the planner's member descriptors.
func (p *Planner) Members() []Member { return p.members }

// Model returns the underlying cost model (for persistence and tests).
func (p *Planner) Model() *Model { return p.model }

// Estimator returns the underlying estimator.
func (p *Planner) Estimator() *Estimator { return p.est }

// EstimateWorks fills out[i] with member i's work estimate for query
// (v, r) and returns out[:len(members)]. Region-dependent estimates are
// computed once and shared. Callers on the hot path pass a stack
// buffer of MaxMembers.
func (p *Planner) EstimateWorks(v int, r geom.Rect, out []float64) []float64 {
	out = out[:len(p.members)]
	regionCount := -1.0 // lazy: only SpaReach/Plane members pay for it
	region := func() float64 {
		if regionCount < 0 {
			regionCount = p.est.RegionCount(r)
		}
		return regionCount
	}
	for i, mem := range p.members {
		switch mem.Kind {
		case WorkDescendants:
			// Descendant scans early-exit on the first in-region hit:
			// with uniform venues the scan length is geometric with
			// success probability |P∩R|/|P|, so the expected work is the
			// smaller of the full descendant set and the expected tries
			// to a hit. Without the cap, large regions make SocReach
			// look expensive exactly when it is at its fastest.
			w := p.est.DescendantMass(v)
			if rc := region(); rc > 0 {
				if tries := p.est.TotalSpatial() / rc; tries < w {
					w = tries
				}
			}
			out[i] = w
		case WorkCandidates:
			out[i] = region()
		case WorkCuboids:
			out[i] = p.est.LogP() * (1 + math.Log2(float64(max(p.est.LabelCount(v), 1))))
		case WorkPlane:
			out[i] = p.est.LogP()
		}
	}
	return out
}

// Choose runs the cost model over precomputed works.
func (p *Planner) Choose(works []float64) (int, bool) { return p.model.Choose(works) }

// Pinned reports the model's fast-path lock-on, if any.
func (p *Planner) Pinned() (int, bool) { return p.model.Pinned() }

// Observe feeds one measured query back into the model.
func (p *Planner) Observe(i int, work, seconds float64) { p.model.Observe(i, work, seconds) }

// Candidate is one member's slice of a Plan.
type Candidate struct {
	Name             string
	Work             float64
	PredictedSeconds float64
}

// Plan is the allocating, introspection-friendly form of a routing
// decision, used by Explain and tests; the hot path in core.Auto calls
// EstimateWorks/Choose directly instead.
type Plan struct {
	Choice           int
	Explored         bool
	PredictedSeconds float64
	Candidates       []Candidate
}

// Plan evaluates the full decision for (v, r).
func (p *Planner) Plan(v int, r geom.Rect) Plan {
	var buf [MaxMembers]float64
	works := p.EstimateWorks(v, r, buf[:])
	choice, explored := p.Choose(works)
	pl := Plan{
		Choice:     choice,
		Explored:   explored,
		Candidates: make([]Candidate, len(p.members)),
	}
	for i, mem := range p.members {
		pl.Candidates[i] = Candidate{
			Name:             mem.Name,
			Work:             works[i],
			PredictedSeconds: p.model.Predict(i, works[i]),
		}
	}
	pl.PredictedSeconds = pl.Candidates[choice].PredictedSeconds
	return pl
}
