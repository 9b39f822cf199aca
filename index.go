package rangereach

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Option customizes index construction; see WithMBRPolicy and friends.
type Option func(*buildConfig)

type buildConfig struct {
	opts core.BuildOptions
	// autoErr names a WithAutoMembers argument without an engine; a
	// MethodAuto Build returns it.
	autoErr error
	// dynFullRebuild switches BuildDynamic to the old full-rebuild
	// update path (see WithFullRebuildUpdates).
	dynFullRebuild bool
}

// WithMBRPolicy switches the SCC spatial policy from the default
// Replicate to MBR: every strongly connected component is represented by
// the bounding rectangle of its member points instead of the points
// themselves (paper §5, measured in its Figure 5). Only the SpaReach
// methods support it, and MethodAuto, whose members without it run
// Replicate; Build returns an error otherwise. ThreeDReach and
// ThreeDReachRev index exact geometries only.
func WithMBRPolicy() Option {
	return func(c *buildConfig) { c.opts.Policy = dataset.MBR }
}

// WithParallelism bounds the number of workers the build pipeline may
// use: independent phases (labeling vs. spatial bulk load, Auto
// members) run concurrently and the index structures parallelize
// internally. The default is runtime.NumCPU(); 1 forces the exact
// sequential code path. Parallel construction is deterministic — the
// built index, and its SaveFile bytes, are identical at any setting
// (see DESIGN.md §12).
func WithParallelism(n int) Option {
	return func(c *buildConfig) {
		if n < 1 {
			n = 1
		}
		c.opts.Parallelism = n
	}
}

// WithFullRebuildUpdates makes a DynamicIndex absorb updates by
// rebuilding everything from the accumulated graph before the next
// query or snapshot, instead of patching the condensation, labels and
// spatial state incrementally. Queries answer identically either way;
// the rebuild path exists for A/B comparison (rrbench's update-churn
// experiment measures both) and as a maximally-simple reference.
// Static Build ignores it.
func WithFullRebuildUpdates() Option {
	return func(c *buildConfig) { c.dynFullRebuild = true }
}

// WithRTreeFanout sets the fan-out of the R-trees that index boxes and
// 2D points: SpaReach's, 3DReach-Rev's, and 3DReach's over extended
// geometries (default 16; 0 or less selects the default, other values
// are clamped to [4, 1<<20], the range a saved index may carry).
// 3DReach's point tiles have no fan-out.
func WithRTreeFanout(fanout int) Option {
	return func(c *buildConfig) {
		c.opts.SpaReach.Fanout = fanout
		c.opts.ThreeD.Fanout = fanout
	}
}

// WithBFLBits sets the Bloom-filter width of SpaReach-BFL in bits
// (default 256; rounded up to a multiple of 64).
func WithBFLBits(bits int) Option {
	return func(c *buildConfig) { c.opts.SpaReach.BFLBits = bits }
}

// WithAutoMembers selects the member engines of a MethodAuto composite
// (default: ThreeDReach alone). Every query goes to the member that
// ranks first in a fixed preference order: ThreeDReach, ThreeDReachRev,
// SpaReachINT, SpaReachBFL, SpaReachPLL, SocReach, GeoReach. Naive and
// MethodAuto itself are not valid members; at most eight members are
// supported. Duplicates and invalid members surface as a Build error
// that names them.
func WithAutoMembers(members ...Method) Option {
	return func(c *buildConfig) {
		c.opts.Auto.Members = nil
		c.autoErr = nil
		for _, m := range members {
			cm, ok := m.internal()
			if !ok {
				c.autoErr = fmt.Errorf("rangereach: auto member %v is not an indexed method", m)
				return
			}
			c.opts.Auto.Members = append(c.opts.Auto.Members, cm)
		}
	}
}

// WithGeoReachParams tunes the SPA-Graph construction: maxRMBR is the
// maximum RMBR extent as a fraction of the space, maxReachGrids the
// ReachGrid cardinality limit, and mergeCount the sibling-merge
// threshold (paper §2.2.2). Zero values keep the defaults.
func WithGeoReachParams(maxRMBR float64, maxReachGrids, mergeCount int) Option {
	return func(c *buildConfig) {
		c.opts.GeoReach.Params.MaxRMBRFraction = maxRMBR
		c.opts.GeoReach.Params.MaxReachGrids = maxReachGrids
		c.opts.GeoReach.Params.MergeCount = mergeCount
	}
}

// Index answers RangeReach queries for one network with one method.
type Index struct {
	net    *Network
	method Method
	engine core.Engine
	stats  IndexStats

	// mapping owns the memory map of an index opened with OpenMapped;
	// nil for built or stream-loaded indexes. See Index.Close.
	mapping io.Closer
	mapped  bool
	mappedB int64
}

// Close releases the memory map of an index opened with
// Network.OpenMapped. The index must not be queried afterwards — its
// structures overlay the mapped pages, and a query running during or
// after Close faults. Close does not wait for queries: the caller must
// drain them first (an rrserve server.Server does in its own Close).
// Close is a no-op (and returns nil) for built or stream-loaded indexes,
// so deferring it unconditionally is safe.
func (idx *Index) Close() error {
	if idx.mapping == nil {
		return nil
	}
	m := idx.mapping
	idx.mapping = nil
	return m.Close()
}

// Mapped reports whether the index's structures overlay a live memory
// map (true only for OpenMapped indexes on platforms with mmap; the
// portable fallback reads into memory and reports false).
func (idx *Index) Mapped() bool { return idx.mapped }

// MappedBytes returns the image size of an OpenMapped index, 0
// otherwise.
func (idx *Index) MappedBytes() int64 { return idx.mappedB }

// BuildPhase attributes part of an index build to one named pipeline
// phase ("labeling", "spatial", "reach", …).
type BuildPhase struct {
	// Name identifies the phase.
	Name string
	// Duration is the accumulated work time of the phase. Under
	// parallel builds concurrent phases accumulate independently, so
	// the sum over phases can exceed the wall-clock BuildTime.
	Duration time.Duration
}

// IndexStats reports the offline costs of an index (the paper's
// Tables 4 and 5).
type IndexStats struct {
	// Method is the evaluation method the index implements.
	Method Method
	// BuildTime is the wall-clock construction time.
	BuildTime time.Duration
	// Bytes is the approximate in-memory footprint of the index
	// structures (the shared network itself is not counted).
	Bytes int64
	// Phases attributes the build to named pipeline phases, sorted by
	// name. Empty for Naive (no index is built).
	Phases []BuildPhase
}

// Build constructs a RangeReach index over the network.
func (n *Network) Build(m Method, options ...Option) (*Index, error) {
	var cfg buildConfig
	for _, o := range options {
		o(&cfg)
	}
	if cfg.opts.Parallelism == 0 {
		cfg.opts.Parallelism = runtime.NumCPU()
	}
	if m == Naive {
		return &Index{
			net:    n,
			method: m,
			engine: core.NewNaiveBFS(n.net),
			stats:  IndexStats{Method: m},
		}, nil
	}
	cm, ok := m.internal()
	if !ok {
		return nil, fmt.Errorf("rangereach: unknown method %v", m)
	}
	if m == MethodAuto && cfg.autoErr != nil {
		return nil, cfg.autoErr
	}
	res, err := core.BuildMethod(n.prep, cm, cfg.opts)
	if err != nil {
		return nil, err
	}
	phases := make([]BuildPhase, len(res.Phases))
	for i, ph := range res.Phases {
		phases[i] = BuildPhase{Name: ph.Name, Duration: ph.Duration}
	}
	return &Index{
		net:    n,
		method: m,
		engine: res.Engine,
		stats: IndexStats{
			Method:    m,
			BuildTime: res.BuildTime,
			Bytes:     res.Bytes,
			Phases:    phases,
		},
	}, nil
}

// MustBuild is Build for static configurations known to be valid; it
// panics on error.
func (n *Network) MustBuild(m Method, options ...Option) *Index {
	idx, err := n.Build(m, options...)
	if err != nil {
		panic(err)
	}
	return idx
}

// Method returns the evaluation method of the index.
func (idx *Index) Method() Method { return idx.method }

// Stats returns the offline costs of the index.
func (idx *Index) Stats() IndexStats { return idx.stats }

// RangeReach reports whether vertex v can reach — along directed edges —
// any spatial vertex whose point lies inside r. It panics if v is out of
// range, mirroring slice semantics.
func (idx *Index) RangeReach(v int, r Rect) bool {
	if v < 0 || v >= idx.net.NumVertices() {
		panic(fmt.Sprintf("rangereach: vertex %d out of range [0,%d)", v, idx.net.NumVertices()))
	}
	return idx.engine.RangeReach(v, r.internal())
}

// Network returns the network the index was built over.
func (idx *Index) Network() *Network { return idx.net }

// PlannerMembers returns the member engine names of a MethodAuto index
// in stored order, and nil for fixed-method indexes.
func (idx *Index) PlannerMembers() []string {
	auto, ok := idx.engine.(*core.Auto)
	if !ok {
		return nil
	}
	members := auto.Members()
	names := make([]string, len(members))
	for i, e := range members {
		names[i] = e.Name()
	}
	return names
}
