package core

import (
	"sync"

	"repro/internal/bfl"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/pll"
	"repro/internal/pool"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// SpaReach is the spatial-first approach (paper §2.2.1): a 2D R-tree
// range query finds the spatial vertices inside the region and a
// reachability index probes each candidate from the query vertex until a
// witness is found. The reachability index is pluggable: BFL for
// SpaReach-BFL, interval labels for SpaReach-INT (§6.1).
type SpaReach struct {
	name      string
	prep      *dataset.Prepared
	policy    dataset.SCCPolicy
	reach     reachIndex
	tree      *rtree.Flat[geom.Rect]
	streaming bool

	// scratch pools the materialized candidate sets so concurrent
	// queries each get their own buffers without per-query allocation.
	scratch sync.Pool
}

// spaScratch is one query's candidate buffers.
type spaScratch struct {
	candidates []int32
	candBoxes  []geom.Rect
}

// SpaReachOptions configures NewSpaReachBFL / NewSpaReachINT.
type SpaReachOptions struct {
	// Policy selects the SCC spatial policy (default Replicate, the
	// winner of Figure 5).
	Policy dataset.SCCPolicy
	// Fanout is the R-tree fan-out (0 = rtree.DefaultMaxEntries).
	Fanout int
	// BFLBits is the Bloom filter width for SpaReach-BFL (0 = default).
	BFLBits int
	// Forest is the spanning-forest policy for SpaReach-INT (the zero
	// value is the DFS default).
	Forest graph.ForestPolicy
	// Streaming interleaves the two phases: reachability probes run
	// inside the R-tree traversal and the query stops at the first
	// witness instead of materializing the full candidate set. This is
	// an *optimization beyond the paper's SpaReach* (the original
	// algorithm of [47] materializes first, which is what makes it
	// sensitive to spatial selectivity); rrbench's ablation-streaming
	// quantifies the difference. Default false = faithful.
	Streaming bool
	// Parallelism bounds the build workers: 0 or 1 builds sequentially,
	// n > 1 constructs the reachability index and the 2D R-tree
	// concurrently and parallelizes each internally where the structure
	// allows. The built engine is identical at any setting.
	Parallelism int
	// Span, when non-nil, accumulates named per-phase build durations.
	Span *trace.BuildSpan
}

// NewSpaReachBFL builds the SpaReach-BFL engine.
func NewSpaReachBFL(prep *dataset.Prepared, opts SpaReachOptions) *SpaReach {
	return newSpaReachPipelined("SpaReach-BFL", prep, opts, "reach", func() reachIndex {
		return bfl.Build(prep.DAG, bfl.Options{Bits: opts.BFLBits, Parallelism: opts.Parallelism})
	})
}

// NewSpaReachINT builds the SpaReach-INT engine, which uses the paper's
// interval-based labeling for the reachability probes.
func NewSpaReachINT(prep *dataset.Prepared, opts SpaReachOptions) *SpaReach {
	return newSpaReachPipelined("SpaReach-INT", prep, opts, "labeling", func() reachIndex {
		return labeling.Build(prep.DAG, labeling.Options{Forest: opts.Forest, Parallelism: opts.Parallelism})
	})
}

// NewSpaReachPLL builds the SpaReach-PLL engine, the 2-hop-labeled
// spatial-first variant Sarwat and Sun evaluate in [47] (paper §2.2.1).
func NewSpaReachPLL(prep *dataset.Prepared, opts SpaReachOptions) *SpaReach {
	return newSpaReachPipelined("SpaReach-PLL", prep, opts, "reach", func() reachIndex {
		return pll.Build(prep.DAG, pll.Options{})
	})
}

// newSpaReachPipelined assembles a SpaReach engine whose two independent
// build phases — the reachability index and the 2D R-tree — run
// concurrently when opts.Parallelism allows (they only read prep). On a
// sequential pool Run degrades to two inline calls, so the 0/1 setting
// is exactly the old code path.
func newSpaReachPipelined(name string, prep *dataset.Prepared, opts SpaReachOptions, phase string, build func() reachIndex) *SpaReach {
	p := pool.New(max(opts.Parallelism, 1))
	var reach reachIndex
	var tree *rtree.Flat[geom.Rect]
	_ = p.Run(
		func() error {
			t := opts.Span.Start()
			reach = build()
			opts.Span.End(phase, t)
			return nil
		},
		func() error {
			t := opts.Span.Start()
			tree = buildSpatialTree(prep, opts.Policy, opts.Fanout, p)
			opts.Span.End("spatial", t)
			return nil
		},
	)
	return newSpaReachWithTree(name, prep, reach, tree, opts)
}

func newSpaReach(name string, prep *dataset.Prepared, reach reachIndex, opts SpaReachOptions) *SpaReach {
	t := opts.Span.Start()
	tree := buildSpatialTree(prep, opts.Policy, opts.Fanout, pool.New(max(opts.Parallelism, 1)))
	opts.Span.End("spatial", t)
	return newSpaReachWithTree(name, prep, reach, tree, opts)
}

func newSpaReachWithTree(name string, prep *dataset.Prepared, reach reachIndex, tree *rtree.Flat[geom.Rect], opts SpaReachOptions) *SpaReach {
	e := &SpaReach{
		name: name, prep: prep, policy: opts.Policy,
		reach: reach, streaming: opts.Streaming, tree: tree,
	}
	e.scratch.New = func() any { return &spaScratch{} }
	return e
}

// buildSpatialTree bulk-loads the 2D R-tree over the network's spatial
// information: one point per spatial vertex under Replicate (entry id =
// original vertex), or one rectangle per component with spatial members
// under MBR (entry id = component). A non-sequential pool parallelizes
// the STR packing; the tree is identical either way.
func buildSpatialTree(prep *dataset.Prepared, policy dataset.SCCPolicy, fanout int, p *pool.Pool) *rtree.Flat[geom.Rect] {
	var entries []rtree.Entry[geom.Rect]
	if policy == dataset.MBR {
		for c := range prep.Members {
			if prep.HasSpatial[c] {
				entries = append(entries, rtree.Entry[geom.Rect]{
					Box: prep.CompMBR[c],
					ID:  int32(c),
				})
			}
		}
	} else {
		for v, s := range prep.Net.Spatial {
			if s {
				entries = append(entries, rtree.Entry[geom.Rect]{
					Box: prep.Net.GeometryOf(v),
					ID:  int32(v),
				})
			}
		}
	}
	leafBoundBytes := 0
	if policy == dataset.Replicate && !prep.Net.HasExtents() {
		leafBoundBytes = 16 // points, not rectangles
	}
	return rtree.BulkLoadPool(entries, fanout, leafBoundBytes, p)
}

// Name implements Engine.
func (e *SpaReach) Name() string { return e.name }

// RangeReach implements Engine following the SpaReach algorithm of [47]
// (paper §2.2.1): first the spatial range query materializes every
// spatial vertex inside the region, then one reachability probe runs per
// candidate until a witness answers TRUE. The two phases are deliberate
// — SpaReach's sensitivity to the spatial selectivity (paper §6.4) stems
// from materializing the full candidate set before any graph work.
func (e *SpaReach) RangeReach(v int, r geom.Rect) bool {
	return e.RangeReachTraced(v, r, nil)
}

// RangeReachTraced implements Engine: the phase-1 R-tree search is the
// spatial stage and every materialized entry a candidate; phase 2 is
// the reach stage with one counted probe per candidate (traced probes
// additionally expose the inner label/DFS work of INT and BFL), plus
// member verifications under the MBR policy.
func (e *SpaReach) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	src := int(e.prep.CompOf(v))
	if e.streaming {
		return e.rangeReachStreaming(src, r, sp)
	}
	s := e.scratch.Get().(*spaScratch)
	defer e.scratch.Put(s)

	// Phase 1: evaluate SRange(P, R).
	s.candidates = s.candidates[:0]
	s.candBoxes = s.candBoxes[:0]
	t := sp.Start()
	e.tree.SearchTraced(geom.Rect(r), sp, func(entry rtree.Entry[geom.Rect]) bool {
		s.candidates = append(s.candidates, entry.ID)
		if e.policy == dataset.MBR {
			s.candBoxes = append(s.candBoxes, entry.Box)
		}
		return true
	})
	sp.End(trace.StageSpatial, t)

	// Phase 2: GReach(G, v, u) per candidate, stopping at the first
	// positive answer.
	t = sp.Start()
	defer sp.End(trace.StageReach, t)
	for i, id := range s.candidates {
		sp.IncCandidate()
		if e.policy == dataset.MBR {
			c := int(id)
			if !e.probe(src, c, sp) {
				continue
			}
			// The MBR only approximates the component's points; confirm
			// with the exact members unless it lies fully inside R.
			if r.ContainsRect(s.candBoxes[i]) {
				return true
			}
			for _, m := range e.prep.SpatialMembers[c] {
				sp.IncMember()
				if e.prep.Witness(m, r) {
					return true
				}
			}
			continue
		}
		if e.probe(src, int(e.prep.CompOf(int(id))), sp) {
			return true
		}
	}
	return false
}

// probe issues one counted reachability probe, routing through the
// traced variant when the index supports it (BFL, interval labels).
func (e *SpaReach) probe(src, dst int, sp *trace.Span) bool {
	sp.IncReachProbe()
	if sp.Enabled() {
		if tr, ok := e.reach.(tracedReach); ok {
			return tr.ReachTraced(src, dst, sp)
		}
	}
	return e.reach.Reach(src, dst)
}

// rangeReachStreaming is the optimized single-pass variant: probes run
// inside the R-tree traversal, so the first witness aborts the spatial
// search as well. The interleaved pass is timed wholesale as the
// spatial stage; candidates, probes and member verifications are still
// counted individually.
func (e *SpaReach) rangeReachStreaming(src int, r geom.Rect, sp *trace.Span) bool {
	found := false
	t := sp.Start()
	e.tree.SearchTraced(geom.Rect(r), sp, func(entry rtree.Entry[geom.Rect]) bool {
		sp.IncCandidate()
		if e.policy == dataset.MBR {
			c := int(entry.ID)
			if !e.probe(src, c, sp) {
				return true
			}
			if r.ContainsRect(entry.Box) {
				found = true
				return false
			}
			for _, m := range e.prep.SpatialMembers[c] {
				sp.IncMember()
				if e.prep.Witness(m, r) {
					found = true
					return false
				}
			}
			return true
		}
		if e.probe(src, int(e.prep.CompOf(int(entry.ID))), sp) {
			found = true
			return false
		}
		return true
	})
	sp.End(trace.StageSpatial, t)
	return found
}

// MemoryBytes implements Engine: reachability index plus 2D R-tree.
func (e *SpaReach) MemoryBytes() int64 {
	return e.reach.MemoryBytes() + e.tree.MemoryBytes()
}
