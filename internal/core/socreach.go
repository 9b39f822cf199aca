package core

import (
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/labeling"
	"repro/internal/trace"
)

// SocReach is the social-first method (paper §4.1): the interval-based
// labeling enumerates the descendant set D(v) of the query vertex, and
// every spatial descendant is tested against the region until a witness
// appears. No spatial index is involved — the paper excludes SocReach
// from the MBR-policy discussion for exactly this reason (§6.2), so the
// engine always operates under the Replicate policy.
type SocReach struct {
	prep *dataset.Prepared
	l    *labeling.Labeling
}

// SocReachOptions is the social-first engine's ablation switch.
type SocReachOptions struct {
	// SkipCompression keeps the labels as descendant singletons, for
	// the compression ablation.
	SkipCompression bool
}

// NewSocReach builds the SocReach engine; opts.Parallelism merges label
// sets level-parallel, to the same labeling at any setting.
func NewSocReach(prep *dataset.Prepared, opts BuildOptions) *SocReach {
	t := opts.Span.Start()
	l := labeling.Build(prep.DAG, labeling.Options{
		SkipCompression: opts.SocReach.SkipCompression,
		Parallelism:     opts.Parallelism,
	})
	opts.Span.End("labeling", t)
	return &SocReach{prep: prep, l: l}
}

// Name implements Engine.
func (e *SocReach) Name() string { return "SocReach" }

// RangeReach implements Engine: every label interval [l, h] of the query
// vertex is a relational range scan over the post-order domain (paper
// Eq. 4.1); each spatial descendant's point is tested against r.
func (e *SocReach) RangeReach(v int, r geom.Rect) bool {
	return e.RangeReachTraced(v, r, nil)
}

// RangeReachTraced implements Engine: each label of the query vertex
// counts as inspected, every descendant produced by the range scans as
// enumerated, and every spatial member's geometry test as a member
// verification; the whole scan is the enumerate stage.
func (e *SocReach) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	src := int(e.prep.CompOf(v))
	test := func(c int32) bool { // reports whether c witnesses the query
		sp.AddEnumerated(1)
		if !e.prep.HasSpatial[c] {
			return false
		}
		for _, m := range e.prep.SpatialMembers(int(c)) {
			sp.IncMember()
			if e.prep.Witness(m, r) {
				return true
			}
		}
		return false
	}
	sp.AddLabels(len(e.l.Label(src)))
	found := false
	t := sp.Start()
	e.l.Descendants(src, func(c int32) bool {
		if test(c) {
			found = true
			return false
		}
		return true
	})
	sp.End(trace.StageEnumerate, t)
	return found
}

// MemoryBytes implements Engine: the labeling is the whole index.
func (e *SocReach) MemoryBytes() int64 { return e.l.MemoryBytes() }

// Labeling exposes the underlying labeling (stats and the Table 6
// reporting reuse it).
func (e *SocReach) Labeling() *labeling.Labeling { return e.l }

var (
	_ Engine = (*SocReach)(nil)
	_ Engine = (*SpaReach)(nil)
	_ Engine = (*NaiveBFS)(nil)
)
