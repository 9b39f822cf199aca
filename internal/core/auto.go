package core

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pool"
	"repro/internal/trace"
)

// DefaultAutoMembers is the member set of a MethodAuto built without an
// explicit one: 3DReach alone, so a default Auto is exactly 3DReach.
var DefaultAutoMembers = []Method{MethodThreeDReach}

// autoPreference is the rule MethodAuto routes by: every query goes to
// the first of the composite's members in this order. It follows the
// pool-wide mean latencies of EXPERIMENTS.md, "MethodAuto is a rule":
// 3DReach is fastest on every lib-query region share of both pools but
// one, where SocReach leads it by under a fifth with a 60× larger index.
var autoPreference = []Method{
	MethodThreeDReach,
	MethodThreeDReachRev,
	MethodSpaReachINT,
	MethodSpaReachBFL,
	MethodSpaReachPLL,
	MethodSocReach,
	MethodGeoReach,
}

// maxAutoMembers bounds the composite.
const maxAutoMembers = 8

// AutoOptions configures the MethodAuto composite.
type AutoOptions struct {
	// Members lists the engines to build (default DefaultAutoMembers, at
	// most eight, no duplicates, MethodAuto itself excluded).
	Members []Method
}

// Auto is the MethodAuto engine: a set of member engines of which one,
// fixed when the composite is built, answers every query. Safe for
// concurrent queries.
type Auto struct {
	members []Engine
	route   Engine // the member autoPreference ranks first
}

// BuildAuto constructs the composite. Each member is built by
// BuildMethod under opts.Policy, except that members without an MBR
// variant run Replicate under MBR. With opts.Parallelism > 1 the
// members build concurrently; member order is fixed by the methods
// slice, not by completion order.
func BuildAuto(prep *dataset.Prepared, opts BuildOptions) (*Auto, error) {
	opts.propagate()
	methods := opts.Auto.Members
	if len(methods) == 0 {
		methods = DefaultAutoMembers
	}
	if len(methods) > maxAutoMembers {
		return nil, fmt.Errorf("core: auto supports at most %d members, got %d", maxAutoMembers, len(methods))
	}
	for i, m := range methods {
		if m == MethodAuto {
			return nil, fmt.Errorf("core: auto member %v: MethodAuto cannot be its own member", m)
		}
		if slices.Contains(methods[:i], m) {
			return nil, fmt.Errorf("core: duplicate auto member %v", m)
		}
	}

	engines := make([]Engine, len(methods))
	p := pool.New(max(opts.Parallelism, 1))
	if err := p.ForEach(len(methods), func(i int) error {
		o := opts
		o.Auto = AutoOptions{}
		if o.Policy == dataset.MBR && !methods[i].SupportsMBR() {
			// Answers are policy-independent, so a Replicate member
			// still agrees with the others.
			o.Policy = dataset.Replicate
		}
		res, err := BuildMethod(prep, methods[i], o)
		if err != nil {
			return fmt.Errorf("core: auto member %v: %w", methods[i], err)
		}
		engines[i] = res.Engine
		return nil
	}); err != nil {
		return nil, err
	}
	route := 0
	for i, m := range methods {
		if slices.Index(autoPreference, m) < slices.Index(autoPreference, methods[route]) {
			route = i
		}
	}
	return &Auto{members: engines, route: engines[route]}, nil
}

// Name implements Engine.
func (a *Auto) Name() string { return "Auto" }

// RangeReach implements Engine.
func (a *Auto) RangeReach(v int, r geom.Rect) bool { return a.route.RangeReach(v, r) }

// RangeReachTraced implements Engine, recording the routed member as
// the span's plan.
func (a *Auto) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	sp.SetPlan(a.route.Name())
	return a.route.RangeReachTraced(v, r, sp)
}

// MemoryBytes implements Engine: the members' structures.
func (a *Auto) MemoryBytes() int64 {
	var total int64
	for _, e := range a.members {
		total += e.MemoryBytes()
	}
	return total
}

// Members returns the member engines in stored order.
func (a *Auto) Members() []Engine { return a.members }

var _ Engine = (*Auto)(nil)
