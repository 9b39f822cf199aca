package core

import (
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/georeach"
	"repro/internal/trace"
)

// GeoReach wraps the SPA-Graph method of Sarwat and Sun (§2.2.2) behind
// the Engine interface. GeoReach always operates under the non-MBR
// (Replicate) principle, by design.
type GeoReach struct {
	idx *georeach.Index
}

// NewGeoReach builds the GeoReach engine at the SPA-Graph's default
// thresholds; opts.Parallelism bounds the classification workers.
func NewGeoReach(prep *dataset.Prepared, opts BuildOptions) *GeoReach {
	t := opts.Span.Start()
	defer opts.Span.End("spagraph", t)
	return &GeoReach{idx: georeach.Build(prep, georeach.Params{Parallelism: opts.Parallelism})}
}

// Name implements Engine.
func (e *GeoReach) Name() string { return "GeoReach" }

// RangeReach implements Engine.
func (e *GeoReach) RangeReach(v int, r geom.Rect) bool {
	return e.idx.RangeReach(v, r)
}

// RangeReachTraced implements Engine, delegating to the SPA-Graph's
// instrumented BFS.
func (e *GeoReach) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	return e.idx.RangeReachTraced(v, r, sp)
}

// MemoryBytes implements Engine.
func (e *GeoReach) MemoryBytes() int64 { return e.idx.MemoryBytes() }

var _ Engine = (*GeoReach)(nil)
