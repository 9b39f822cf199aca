package core

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/trace"
)

// Method enumerates the RangeReach evaluation methods of the paper's
// experimental analysis (§6.1).
type Method int

// The values are the method byte of the v2 manifest, so each is spelled
// out and never reused: a saved index must keep naming the engine it
// holds whatever is added or removed here.
const (
	// MethodSpaReachBFL is the spatial-first baseline with BFL probes.
	MethodSpaReachBFL Method = 0
	// MethodSpaReachINT is the spatial-first baseline with interval-label probes.
	MethodSpaReachINT Method = 1
	// MethodGeoReach is the SPA-Graph state of the art.
	MethodGeoReach Method = 2
	// MethodSocReach is the social-first method.
	MethodSocReach Method = 3
	// MethodThreeDReach is the point-based 3D transformation.
	MethodThreeDReach Method = 4
	// MethodThreeDReachRev is the line-based variant on reversed labels.
	MethodThreeDReachRev Method = 5
	// MethodSpaReachPLL is the spatial-first baseline with 2-hop
	// (pruned landmark labeling) probes, the first variant of [47].
	MethodSpaReachPLL Method = 6
	// 7 and 8 are reserved: they named the removed SpaReach-Feline and
	// SpaReach-GRAIL variants. Both loaders reject them like any other
	// byte that names no method.

	// MethodAuto is the composite: a set of member engines, of which the
	// one a fixed preference order ranks first answers every query.
	MethodAuto Method = 9
)

// AllMethods lists the methods of the paper's own evaluation (§6.1), in
// its reporting order. The Tables 4/5 harness iterates exactly these.
var AllMethods = []Method{
	MethodSpaReachBFL,
	MethodSpaReachINT,
	MethodGeoReach,
	MethodSocReach,
	MethodThreeDReach,
	MethodThreeDReachRev,
}

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodSpaReachBFL:
		return "SpaReach-BFL"
	case MethodSpaReachINT:
		return "SpaReach-INT"
	case MethodGeoReach:
		return "GeoReach"
	case MethodSocReach:
		return "SocReach"
	case MethodThreeDReach:
		return "3DReach"
	case MethodThreeDReachRev:
		return "3DReach-Rev"
	case MethodSpaReachPLL:
		return "SpaReach-PLL"
	case MethodAuto:
		return "Auto"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// SupportsMBR reports whether the method has an MBR-policy variant: the
// paper's §6.2 discussion excludes SocReach (no spatial index) and
// GeoReach (non-MBR by design).
func (m Method) SupportsMBR() bool {
	switch m {
	case MethodSocReach, MethodGeoReach:
		return false
	default:
		return true
	}
}

// BuildOptions bundles the per-method knobs for BuildMethod.
type BuildOptions struct {
	// Policy is the SCC spatial policy for the methods that support it.
	Policy dataset.SCCPolicy
	// Parallelism bounds the worker count of the build pipeline: 0 or 1
	// builds exactly as the sequential code path, n > 1 lets independent
	// phases (labeling vs. spatial tree, Auto members) and
	// level-parallel index construction fan out across up to n workers.
	// Results are identical at any setting — parallel construction is
	// deterministic by design (see DESIGN.md §12). It is propagated into
	// every sub-option that has its own Parallelism knob, unless that
	// knob is already set.
	Parallelism int
	// Span, when non-nil, accumulates named per-phase build durations.
	// BuildMethod allocates one itself when nil, so BuildResult.Phases
	// is always populated.
	Span *trace.BuildSpan
	// SpaReach carries the spatial-first options (Policy is overridden).
	SpaReach SpaReachOptions
	// ThreeD carries the 3DReach options (Policy is overridden).
	ThreeD ThreeDOptions
	// GeoReach carries the SPA-Graph options.
	GeoReach GeoReachOptions
	// SocReach carries the social-first options.
	SocReach SocReachOptions
	// Auto carries the composite's options (MethodAuto only).
	Auto AutoOptions
}

// propagate copies the build-wide Parallelism and Span into each
// sub-option so constructors see them regardless of which entry point
// the build came through. Per-method Parallelism overrides win.
func (o *BuildOptions) propagate() {
	if o.Span == nil {
		o.Span = &trace.BuildSpan{}
	}
	if o.SpaReach.Parallelism == 0 {
		o.SpaReach.Parallelism = o.Parallelism
	}
	if o.ThreeD.Parallelism == 0 {
		o.ThreeD.Parallelism = o.Parallelism
	}
	if o.SocReach.Parallelism == 0 {
		o.SocReach.Parallelism = o.Parallelism
	}
	if o.GeoReach.Params.Parallelism == 0 {
		o.GeoReach.Params.Parallelism = o.Parallelism
	}
	o.SpaReach.Span = o.Span
	o.ThreeD.Span = o.Span
	o.SocReach.Span = o.Span
	o.GeoReach.Span = o.Span
}

// BuildResult is a constructed engine plus its offline costs, the raw
// material of Tables 4 and 5.
type BuildResult struct {
	Engine    Engine
	Method    Method
	Policy    dataset.SCCPolicy
	BuildTime time.Duration
	Bytes     int64
	// Phases attributes the build wall-clock to named pipeline phases
	// ("labeling", "spatial", "reach", …), sorted by name.
	Phases []trace.BuildPhase
	// Mapped and MappedBytes describe the backing of an engine opened
	// with OpenMappedEngine: whether its columns overlay a live memory
	// map (vs an aligned in-memory copy on mmap-less platforms) and the
	// image size. Both are zero for built or stream-loaded engines.
	Mapped      bool
	MappedBytes int64
}

// BuildMethod constructs the engine for a method, timing the build. It
// returns an error for unsupported (method, policy) combinations instead
// of silently falling back.
func BuildMethod(prep *dataset.Prepared, m Method, opts BuildOptions) (BuildResult, error) {
	if opts.Policy == dataset.MBR && !m.SupportsMBR() {
		return BuildResult{}, fmt.Errorf("core: %v has no MBR variant", m)
	}
	opts.propagate()
	//lint:ignore hotclock build-time measurement, not the query path
	start := time.Now()
	var e Engine
	switch m {
	case MethodSpaReachBFL:
		so := opts.SpaReach
		so.Policy = opts.Policy
		e = NewSpaReachBFL(prep, so)
	case MethodSpaReachINT:
		so := opts.SpaReach
		so.Policy = opts.Policy
		e = NewSpaReachINT(prep, so)
	case MethodGeoReach:
		e = NewGeoReach(prep, opts.GeoReach)
	case MethodSocReach:
		e = NewSocReach(prep, opts.SocReach)
	case MethodThreeDReach:
		to := opts.ThreeD
		to.Policy = opts.Policy
		e = NewThreeDReach(prep, to)
	case MethodThreeDReachRev:
		to := opts.ThreeD
		to.Policy = opts.Policy
		e = NewThreeDReachRev(prep, to)
	case MethodSpaReachPLL:
		so := opts.SpaReach
		so.Policy = opts.Policy
		e = NewSpaReachPLL(prep, so)
	case MethodAuto:
		auto, err := BuildAuto(prep, opts)
		if err != nil {
			return BuildResult{}, err
		}
		e = auto
	default:
		return BuildResult{}, fmt.Errorf("core: unknown method %d", int(m))
	}
	return BuildResult{
		Engine: e,
		Method: m,
		Policy: opts.Policy,
		//lint:ignore hotclock build-time measurement, not the query path
		BuildTime: time.Since(start),
		Bytes:     e.MemoryBytes(),
		Phases:    opts.Span.Phases(),
	}, nil
}
