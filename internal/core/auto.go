package core

import (
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/trace"
)

// Auto is the MethodAuto engine: one 3DReach, the fastest engine on
// every lib-query region share but one (EXPERIMENTS.md, "MethodAuto is
// a rule"), named Auto and naming 3DReach as the plan of every traced
// query. Safe for concurrent queries.
type Auto struct {
	route *ThreeDReach
}

// NewAuto builds the Auto engine.
func NewAuto(prep *dataset.Prepared, opts BuildOptions) *Auto {
	return &Auto{route: NewThreeDReach(prep, opts)}
}

// Name implements Engine.
func (a *Auto) Name() string { return "Auto" }

// RangeReach implements Engine.
func (a *Auto) RangeReach(v int, r geom.Rect) bool { return a.route.RangeReach(v, r) }

// RangeReachTraced implements Engine, recording the engine that
// answers as the span's plan.
func (a *Auto) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	sp.SetPlan(a.route.Name())
	return a.route.RangeReachTraced(v, r, sp)
}

// MemoryBytes implements Engine: the 3DReach's structures.
func (a *Auto) MemoryBytes() int64 { return a.route.MemoryBytes() }

// Member returns the engine that answers every query.
func (a *Auto) Member() Engine { return a.route }

var _ Engine = (*Auto)(nil)
