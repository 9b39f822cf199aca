package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/labeling"
	"repro/internal/planner"
	"repro/internal/pool"
	"repro/internal/trace"
)

// DefaultAutoMembers is the composite the planner routes over when the
// caller does not pick one: the three methods whose winning regimes
// tile the paper's §6 parameter space — SocReach for small descendant
// sets, 3DReach-Rev for selective regions, SpaReach-INT for large
// regions with few candidates.
var DefaultAutoMembers = []Method{MethodSocReach, MethodThreeDReachRev, MethodSpaReachINT}

// AutoOptions configures the MethodAuto composite.
type AutoOptions struct {
	// Members lists the engines to build and route across (default
	// DefaultAutoMembers, at most planner.MaxMembers, no duplicates,
	// MethodAuto itself excluded).
	Members []Method
	// Explore routes every Nth query round-robin instead of by cost so
	// rarely-chosen members keep fresh coefficients. 0 selects
	// planner.DefaultExploreEvery, negative disables exploration.
	Explore int
	// Alpha is the EMA smoothing factor of the feedback loop (0 selects
	// planner.DefaultAlpha).
	Alpha float64
	// Calibrate is the number of microbenchmark queries run at build
	// time to seed the per-member cost coefficients. 0 selects the
	// default (32), negative skips calibration and starts from the
	// model's uniform prior.
	Calibrate int
	// Seed drives the calibration workload (deterministic per seed).
	Seed int64
}

const defaultCalibrationQueries = 32

// maxAutoMembers bounds the composite fan-out (persistence validates
// against it too).
func maxAutoMembers() int { return planner.MaxMembers }

// workKindOf maps a member method to the work estimate that drives its
// cost model (the dominant term of its query complexity).
func workKindOf(m Method) planner.WorkKind {
	switch m {
	case MethodSocReach, MethodGeoReach:
		return planner.WorkDescendants
	case MethodThreeDReach:
		return planner.WorkCuboids
	case MethodThreeDReachRev:
		return planner.WorkPlane
	default: // all SpaReach variants
		return planner.WorkCandidates
	}
}

// sharedBuild is the core hook that lets MethodAuto's members reuse one
// labeling computation: the condensation is already shared through
// Prepared, and the forward/reversed interval labelings are built
// lazily, once, on first demand.
type sharedBuild struct {
	prep *dataset.Prepared
	opts BuildOptions

	fwd       *labeling.Labeling
	rev       *labeling.Labeling
	fwdShares int
	revShares int
}

// prepare deterministically pre-computes which shared labelings the
// member list needs — and how many members share each, so MemoryBytes
// can deduplicate — then builds them, forward and reversed concurrently
// when the pool allows. The forward labeling is always built: the
// planner's estimator reads it even when no member consumes it. Moving
// the share accounting out of the member constructors is what lets the
// members themselves build concurrently afterwards: buildMember only
// reads the finished labelings.
func (s *sharedBuild) prepare(methods []Method, p *pool.Pool) {
	for _, m := range methods {
		switch m {
		case MethodSocReach, MethodSpaReachINT, MethodThreeDReach:
			s.fwdShares++
		case MethodThreeDReachRev:
			s.revShares++
		}
	}
	t := s.opts.Span.Start()
	defer s.opts.Span.End("labeling", t)
	tasks := []func() error{
		func() error { s.forward(); return nil },
	}
	if s.revShares > 0 {
		tasks = append(tasks, func() error { s.reversed(); return nil })
	}
	_ = p.Run(tasks...)
}

// forward returns the shared forward labeling of prep.DAG, building it
// on first use. Auto unifies the members' Forest/compression knobs on
// the SocReach options, since one labeling must serve them all.
func (s *sharedBuild) forward() *labeling.Labeling {
	if s.fwd == nil {
		s.fwd = labeling.Build(s.prep.DAG, labeling.Options{
			Forest:          s.opts.SocReach.Forest,
			SkipCompression: s.opts.SocReach.SkipCompression,
			Parallelism:     s.opts.SocReach.Parallelism,
		})
	}
	return s.fwd
}

// reversed returns the shared labeling of the reversed DAG (3DReach-Rev).
func (s *sharedBuild) reversed() *labeling.Labeling {
	if s.rev == nil {
		s.rev = labeling.Build(s.prep.DAG.Reverse(), labeling.Options{
			Forest:      s.opts.ThreeD.Forest,
			Parallelism: s.opts.ThreeD.Parallelism,
		})
	}
	return s.rev
}

// buildMember constructs one member engine, reusing the shared
// labelings where the method consumes one. After prepare has run,
// buildMember is safe to call concurrently for distinct members: it
// only reads the shared state.
func (s *sharedBuild) buildMember(m Method) (Engine, error) {
	if s.opts.Policy == dataset.MBR && !m.SupportsMBR() {
		// Per-member policy: SocReach/GeoReach have no MBR variant, so
		// inside the composite they run Replicate. Answers are
		// policy-independent, so parity across members still holds.
		return s.withPolicy(m, dataset.Replicate)
	}
	return s.withPolicy(m, s.opts.Policy)
}

func (s *sharedBuild) withPolicy(m Method, policy dataset.SCCPolicy) (Engine, error) {
	switch m {
	case MethodSocReach:
		return NewSocReachWithLabeling(s.prep, s.forward()), nil
	case MethodSpaReachINT:
		so := s.opts.SpaReach
		so.Policy = policy
		return NewSpaReachINTWithLabeling(s.prep, s.forward(), so), nil
	case MethodThreeDReach:
		to := s.opts.ThreeD
		to.Policy = policy
		return NewThreeDReachWithLabeling(s.prep, s.forward(), to), nil
	case MethodThreeDReachRev:
		to := s.opts.ThreeD
		to.Policy = policy
		return NewThreeDReachRevWithLabeling(s.prep, s.reversed(), to), nil
	case MethodAuto:
		return nil, fmt.Errorf("core: MethodAuto cannot be its own member")
	default:
		o := s.opts
		o.Policy = policy
		o.Auto = AutoOptions{}
		res, err := BuildMethod(s.prep, m, o)
		if err != nil {
			return nil, err
		}
		return res.Engine, nil
	}
}

// sharedBytes returns the labeling bytes saved by sharing: each extra
// member reusing a labeling would otherwise have built its own copy.
func (s *sharedBuild) sharedBytes() int64 {
	var saved int64
	if s.fwd != nil && s.fwdShares > 1 {
		saved += int64(s.fwdShares-1) * s.fwd.MemoryBytes()
	}
	if s.rev != nil && s.revShares > 1 {
		saved += int64(s.revShares-1) * s.rev.MemoryBytes()
	}
	return saved
}

// Auto is the MethodAuto engine: a set of complementary member engines
// over shared labeling state, with a two-stage planner (static cost
// model + online feedback) routing each query to the predicted-cheapest
// member. Safe for concurrent queries.
type Auto struct {
	prep    *dataset.Prepared
	policy  dataset.SCCPolicy
	methods []Method
	members []Engine
	pl      *planner.Planner
	choices []atomic.Int64
	pinSeq  atomic.Uint64 // pinned-mode query clock (reviews + probes)
	obsSeq  atomic.Uint64 // unpinned-mode sampling clock for feedback

	sharedBytes int64 // labeling bytes deduplicated across members
}

// BuildAuto constructs the composite. opts.Policy applies to the
// members that support it; opts.Auto carries the planner knobs. With
// opts.Parallelism > 1 the two shared labelings build concurrently and
// then the member engines fan out across the pool — each member only
// reads the finished labelings, so the composite is identical to a
// sequential build (member order is fixed by the methods slice, not by
// completion order).
func BuildAuto(prep *dataset.Prepared, opts BuildOptions) (*Auto, error) {
	opts.propagate()
	methods := opts.Auto.Members
	if len(methods) == 0 {
		methods = DefaultAutoMembers
	}
	if len(methods) > planner.MaxMembers {
		return nil, fmt.Errorf("core: auto supports at most %d members, got %d", planner.MaxMembers, len(methods))
	}
	seen := map[Method]bool{}
	for _, m := range methods {
		if seen[m] {
			return nil, fmt.Errorf("core: duplicate auto member %v", m)
		}
		seen[m] = true
	}

	p := pool.New(max(opts.Parallelism, 1))
	shared := &sharedBuild{prep: prep, opts: opts}
	shared.prepare(methods, p)
	engines := make([]Engine, len(methods))
	// The member constructors time their own phases ("spatial",
	// "reach", …) into the shared span; no wrapper phase here, so the
	// recorded durations attribute work rather than overlapping wall
	// clock.
	if err := p.ForEach(len(methods), func(i int) error {
		e, err := shared.buildMember(methods[i])
		if err != nil {
			return fmt.Errorf("core: auto member %v: %w", methods[i], err)
		}
		engines[i] = e
		return nil
	}); err != nil {
		return nil, err
	}

	a := assembleAuto(prep, opts.Policy, methods, engines, opts.Auto, shared.forward())
	a.sharedBytes = shared.sharedBytes()

	n := opts.Auto.Calibrate
	if n == 0 {
		n = defaultCalibrationQueries
	}
	if n > 0 {
		t := opts.Span.Start()
		a.calibrate(n, opts.Auto.Seed)
		opts.Span.End("calibrate", t)
	}
	return a, nil
}

// assembleAuto wires the planner around already-built members. fwd is
// the forward labeling the estimator reads (it is not retained); both
// the build path and the persistence loader funnel through here.
func assembleAuto(prep *dataset.Prepared, policy dataset.SCCPolicy, methods []Method, engines []Engine, opts AutoOptions, fwd *labeling.Labeling) *Auto {
	descs := make([]planner.Member, len(methods))
	for i, m := range methods {
		descs[i] = planner.Member{Name: engines[i].Name(), Kind: workKindOf(m)}
	}
	est := planner.NewEstimator(prep, fwd)
	model := planner.NewModel(len(methods), opts.Alpha, opts.Explore)
	return &Auto{
		prep:    prep,
		policy:  policy,
		methods: append([]Method(nil), methods...),
		members: engines,
		pl:      planner.New(est, model, descs),
		choices: make([]atomic.Int64, len(methods)),
	}
}

// calibrate seeds the per-member cost coefficients with a deterministic
// microbenchmark: n random queries, each timed on every member, and the
// median observed seconds-per-work-unit becomes the member's
// coefficient. Medians resist the occasional allocation or scheduling
// hiccup that would skew a mean.
func (a *Auto) calibrate(n int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 0x5eed))
	space := a.prep.Net.Space()
	nv := a.prep.Net.NumVertices()
	if nv == 0 {
		return
	}
	samples := make([][]float64, len(a.members))
	var buf [planner.MaxMembers]float64
	for q := 0; q < n; q++ {
		v := rng.Intn(nv)
		r := calibrationRegion(rng, space)
		works := a.pl.EstimateWorks(v, r, buf[:])
		for i, e := range a.members {
			//lint:ignore hotclock calibration is an offline microbenchmark; measuring latency is its purpose
			start := time.Now()
			e.RangeReach(v, r)
			//lint:ignore hotclock calibration is an offline microbenchmark; measuring latency is its purpose
			sec := time.Since(start).Seconds()
			if sec > 0 {
				samples[i] = append(samples[i], sec/(1+works[i]))
			}
		}
	}
	for i, s := range samples {
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		a.pl.Model().SetCoef(i, s[len(s)/2])
	}
}

// calibrationRegion draws a square query region with extent 1–20% of
// the space per axis — the paper's workload sweep range.
func calibrationRegion(rng *rand.Rand, space geom.Rect) geom.Rect {
	frac := 0.01 + 0.19*rng.Float64()
	w := space.Width() * frac
	h := space.Height() * frac
	x := space.Min.X + rng.Float64()*(space.Width()-w)
	y := space.Min.Y + rng.Float64()*(space.Height()-h)
	return geom.NewRect(x, y, x+w, y+h)
}

// Name implements Engine.
func (a *Auto) Name() string { return "Auto" }

// RangeReach implements Engine: plan, route, observe.
func (a *Auto) RangeReach(v int, r geom.Rect) bool {
	return a.RangeReachTraced(v, r, nil)
}

// RangeReachTraced implements Engine. The planning overhead per query
// is O(members): a few histogram lookups and an argmin — and once the
// model pins a stable winner, untraced queries skip even that and pay
// only two atomic operations over a direct member call. Every
// DefaultReviewEvery-th query (and every traced one) still takes the
// full estimate/observe path so the pin can be revised, and every
// DefaultPinnedExploreEvery-th query probes one of the other members
// round-robin so their coefficients keep tracking the live workload;
// the allocating PlanInfo is built only when a span collects.
func (a *Auto) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	forced := -1
	if sp == nil {
		if i, ok := a.pl.Pinned(); ok {
			n := a.pinSeq.Add(1)
			switch {
			case len(a.members) > 1 && n%planner.DefaultPinnedExploreEvery == 0:
				// Probe a non-pinned member round-robin: without these the
				// others are only ever timed on the model's own exploration
				// ticks — once per exploreEvery·reviewEvery queries — far
				// too rarely for a stale coefficient to correct before the
				// next review re-confirms a pin the workload has outgrown.
				k := int(n/planner.DefaultPinnedExploreEvery) % (len(a.members) - 1)
				if k >= i {
					k++
				}
				forced = k
			case n%planner.DefaultReviewEvery == 0:
				// Fall through to the full estimate/observe path so the
				// argmin gets a chance to revise the pin.
			default:
				a.choices[i].Add(1)
				return a.members[i].RangeReach(v, r)
			}
		}
	}
	var buf [planner.MaxMembers]float64
	works := a.pl.EstimateWorks(v, r, buf[:])
	choice, explored := forced, true
	if forced < 0 {
		choice, explored = a.pl.Choose(works)
	}
	if sp.Enabled() {
		pi := &trace.PlanInfo{
			Method:     a.members[choice].Name(),
			Explored:   explored,
			Candidates: make([]trace.PlanCandidate, len(a.members)),
		}
		for i, e := range a.members {
			pi.Candidates[i] = trace.PlanCandidate{
				Method:    e.Name(),
				Work:      works[i],
				Predicted: time.Duration(a.pl.Model().Predict(i, works[i]) * float64(time.Second)),
			}
		}
		pi.Predicted = pi.Candidates[choice].Predicted
		sp.SetPlan(pi)
	}
	// Feedback is sampled: probes and exploration picks exist to be
	// timed, traced queries are rare, but routine argmin routing only
	// feeds the EMA every DefaultObserveEvery-th query — the clock reads
	// and the CAS dominate the full-path cost otherwise.
	observe := forced >= 0 || explored || sp.Enabled() ||
		a.obsSeq.Add(1)%planner.DefaultObserveEvery == 0
	if !observe {
		a.choices[choice].Add(1)
		return a.members[choice].RangeReachTraced(v, r, sp)
	}
	//lint:ignore hotclock sampled cost-model feedback; the unobserved fast path above takes no clock reads
	start := time.Now()
	ans := a.members[choice].RangeReachTraced(v, r, sp)
	//lint:ignore hotclock sampled cost-model feedback; the unobserved fast path above takes no clock reads
	a.pl.Observe(choice, works[choice], time.Since(start).Seconds())
	a.choices[choice].Add(1)
	return ans
}

// MemoryBytes implements Engine: the members' structures, counted once
// where shared, plus the planner's estimator tables.
func (a *Auto) MemoryBytes() int64 {
	var total int64
	for _, e := range a.members {
		total += e.MemoryBytes()
	}
	return total - a.sharedBytes + a.pl.Estimator().MemoryBytes()
}

// Members returns the member engines in routing order.
func (a *Auto) Members() []Engine { return a.members }

// Choices returns a snapshot of how many queries each member has
// served, aligned with Members.
func (a *Auto) Choices() []int64 {
	out := make([]int64, len(a.choices))
	for i := range a.choices {
		out[i] = a.choices[i].Load()
	}
	return out
}

// Planner exposes the underlying planner (tests, persistence, stats).
func (a *Auto) Planner() *planner.Planner { return a.pl }

var _ Engine = (*Auto)(nil)
