// Package georeach re-implements the GeoReach method of Sarwat and Sun —
// the state-of-the-art baseline the paper compares against (§2.2.2).
//
// GeoReach augments the vertices of the geosocial network with partially
// materialized spatial reachability information, the SPA-Graph. Every
// vertex is classified as one of:
//
//   - G-vertex: stores ReachGrid(v), the set of hierarchical grid cells
//     containing all spatial vertices reachable from v;
//   - R-vertex: stores RMBR(v), the minimum bounding rectangle of the
//     reachable spatial vertices (used when the ReachGrid would exceed
//     MAX_REACH_GRIDS cells);
//   - B-vertex: stores only the spatial reachability bit GeoB(v) (used
//     when the RMBR would exceed MAX_RMBR of the space).
//
// Queries traverse the SPA-Graph breadth-first from the query vertex,
// pruning with the per-class rules and terminating early when a grid
// cell or RMBR is fully contained in the query region.
//
// The index is built on the SCC-condensed DAG (reachability is invariant
// under condensation); spatial vertices inside an SCC contribute their
// individual points, i.e. GeoReach "always operates under a non-MBR
// principle, by design" (paper §6.2).
package georeach

import (
	"slices"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Kind is the SPA-Graph vertex class.
type Kind uint8

const (
	// GVertex carries a ReachGrid.
	GVertex Kind = iota
	// RVertex carries an RMBR.
	RVertex
	// BVertex carries only GeoB.
	BVertex
)

// Params are the three SPA-Graph construction parameters of §2.2.2.
type Params struct {
	// MaxRMBRFraction is MAX_RMBR as a fraction of the space area: an
	// RMBR larger than this downgrades its vertex to a B-vertex.
	// Default 0.8, the value of the paper's Example 2.5.
	MaxRMBRFraction float64
	// MaxReachGrids is MAX_REACH_GRIDS, the maximum ReachGrid
	// cardinality before downgrading to an R-vertex. Default 64.
	MaxReachGrids int
	// MergeCount is MERGE_COUNT: more than this many sibling quad-cells
	// in a ReachGrid are merged into their parent cell. Default 3.
	MergeCount int
	// Levels is the number of grid levels (default 8, i.e. a 128×128
	// finest partitioning).
	Levels int
	// Parallelism bounds the workers of the SPA-Graph classification:
	// 0 or 1 keeps the sequential path, n > 1 classifies each
	// topological level with up to n workers. The per-vertex
	// computation — cell covering, grid unions, MBR unions, the
	// downgrade cascade — is exactly the sequential one over the same
	// finished successor state, so classification (and the serialized
	// SPA-Graph) is identical at any worker count.
	Parallelism int
}

func (p Params) withDefaults() Params {
	if p.MaxRMBRFraction <= 0 {
		p.MaxRMBRFraction = 0.8
	}
	if p.MaxReachGrids <= 0 {
		p.MaxReachGrids = 64
	}
	if p.MergeCount <= 0 {
		p.MergeCount = 3
	}
	if p.Levels <= 0 {
		p.Levels = 8
	}
	return p
}

// Index is the SPA-Graph of a prepared geosocial network. The four flat
// columns (flat.go) are the only form it takes in memory: Build freezes
// into them, Save writes them, a mapped open aliases them.
type Index struct {
	prep *dataset.Prepared
	h    *grid.Hierarchy

	flags    []uint8   // [2n] per vertex {kind, geoB}
	rmbr     []float64 // [4n] per vertex MinX, MinY, MaxX, MaxY
	gridOff  []uint64  // [n+1] G-vertex v's ReachGrid is gridKeys[off[v]:off[v+1]]
	gridKeys []uint64  // cell keys, ascending within each vertex's run
}

func (idx *Index) kindOf(v int) Kind { return Kind(idx.flags[2*v]) }

// reaches is GeoB(v): true iff v reaches a spatial vertex.
func (idx *Index) reaches(v int) bool { return idx.flags[2*v+1] != 0 }

func (idx *Index) rmbrOf(v int) geom.Rect {
	r := idx.rmbr[4*v : 4*v+4]
	return geom.Rect{Min: geom.Pt(r[0], r[1]), Max: geom.Pt(r[2], r[3])}
}

// cells returns the ReachGrid of v as its run of cell keys (empty for
// R- and B-vertices).
func (idx *Index) cells(v int) []uint64 {
	return idx.gridKeys[idx.gridOff[v]:idx.gridOff[v+1]]
}

// Build constructs the SPA-Graph for the prepared network.
func Build(prep *dataset.Prepared, params Params) *Index {
	params = params.withDefaults()
	space := prep.Net.Space()
	h := grid.NewHierarchy(space, params.Levels)
	n := prep.NumComponents()
	idx := &Index{
		prep:    prep,
		h:       h,
		flags:   make([]uint8, 2*n),
		rmbr:    make([]float64, 4*n),
		gridOff: make([]uint64, n+1),
	}
	// Construction-time ReachGrids: hash sets while successors are still
	// being unioned into them, frozen into gridKeys below.
	grids := make([]grid.CellSet, n)
	maxArea := params.MaxRMBRFraction * space.Area()

	// classify computes v's class from its own members and its
	// successors' finished state, writing only v's slots. Children
	// before parents: classification is monotone (G ≥ R ≥ B in
	// information), and a vertex can never hold finer information than
	// its least-informative successor with spatial reach.
	classify := func(v int) {
		kind := GVertex
		cells := make(grid.CellSet)
		mbr := geom.EmptyRect()
		reaches := false

		// Own spatial members (replicated geometries of the SCC).
		for _, m := range prep.SpatialMembers(v) {
			g := prep.GeometryOf(m)
			h.CoverRect(g, 0, cells.Add)
			mbr = mbr.Union(g)
			reaches = true
		}
		for _, w := range prep.DAG.Out(v) {
			u := int(w)
			if !idx.reaches(u) {
				continue // successor reaches nothing spatial
			}
			reaches = true
			switch idx.kindOf(u) {
			case GVertex:
				if kind == GVertex {
					cells.UnionWith(grids[u])
				}
				mbr = mbr.Union(idx.rmbrOf(u))
			case RVertex:
				if kind == GVertex {
					kind = RVertex
				}
				mbr = mbr.Union(idx.rmbrOf(u))
			case BVertex:
				kind = BVertex
			}
		}

		if !reaches {
			idx.flags[2*v] = uint8(BVertex)
			return
		}
		if kind == GVertex {
			cells.Merge(h, params.MergeCount)
			if cells.Len() > params.MaxReachGrids {
				kind = RVertex
			} else {
				grids[v] = cells
			}
		}
		if kind == RVertex && mbr.Area() > maxArea {
			kind = BVertex
		}
		idx.flags[2*v], idx.flags[2*v+1] = uint8(kind), 1
		// G- and B-vertices keep their RMBR for the classification of
		// their parents only; no query reads it.
		copy(idx.rmbr[4*v:], []float64{mbr.Min.X, mbr.Min.Y, mbr.Max.X, mbr.Max.Y})
	}

	if p := pool.New(max(params.Parallelism, 1)); !p.Sequential() {
		// Level-synchronous classification: vertices of one topological
		// height share no edges, so each reads its successors' finished
		// state from strictly lower levels and writes only its own.
		levels := graph.LevelsFromSinks(prep.DAG)
		if levels == nil {
			panic("georeach: condensed graph is not a DAG")
		}
		p.Levels(levels, func(v int32) { classify(int(v)) })
	} else {
		topo, ok := prep.DAG.TopoOrder()
		if !ok {
			panic("georeach: condensed graph is not a DAG")
		}
		for i := len(topo) - 1; i >= 0; i-- {
			classify(int(topo[i]))
		}
	}

	// Freeze: each ReachGrid becomes an ascending run of keys, so the
	// columns are canonical — identical SPA-Graphs, however built, hold
	// and save identical bytes.
	total := 0
	for _, cells := range grids {
		total += cells.Len()
	}
	idx.gridKeys = make([]uint64, 0, total)
	for v, cells := range grids {
		idx.gridOff[v] = uint64(len(idx.gridKeys))
		for key := range cells {
			idx.gridKeys = append(idx.gridKeys, key)
		}
		slices.Sort(idx.gridKeys[idx.gridOff[v]:])
	}
	idx.gridOff[n] = uint64(len(idx.gridKeys))
	return idx
}

// RangeReach answers RangeReach(G, v, R) for the original vertex v by
// traversing the SPA-Graph breadth-first with the §2.2.2 pruning rules.
func (idx *Index) RangeReach(v int, r geom.Rect) bool {
	return idx.RangeReachTraced(v, r, nil)
}

// RangeReachTraced is RangeReach with instrumentation: every dequeued
// SPA-Graph vertex counts as a graph visit, every exact geometry test
// as a member verification, and the whole BFS is the traverse stage.
func (idx *Index) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	t := sp.Start()
	defer sp.End(trace.StageTraverse, t)
	prep := idx.prep
	start := int(prep.CompOf(v))
	if !idx.reaches(start) {
		return false
	}
	n := prep.NumComponents()
	visited := make([]bool, n)
	queue := make([]int32, 0, 64)
	queue = append(queue, int32(start))
	visited[start] = true

	for len(queue) > 0 {
		u := int(queue[0])
		queue = queue[1:]
		sp.IncGraphVisited()

		expand := false
		switch idx.kindOf(u) {
		case BVertex:
			if !idx.reaches(u) {
				continue // prune: reaches nothing spatial
			}
			expand = true
		case RVertex:
			mbr := idx.rmbrOf(u)
			if !mbr.Intersects(r) {
				continue // prune: no reachable point can be in R
			}
			if r.ContainsRect(mbr) {
				return true // every reachable point is in R; RMBR non-empty
			}
			expand = true
		case GVertex:
			intersects, contained := idx.cellsIntersect(u, r)
			if contained {
				return true // a non-empty cell lies fully inside R
			}
			if !intersects {
				continue
			}
			expand = true
		}

		// Partial overlap: test the vertex's own spatial members exactly.
		for _, m := range prep.SpatialMembers(u) {
			sp.IncMember()
			if prep.Witness(m, r) {
				return true
			}
		}
		if expand {
			for _, w := range prep.DAG.Out(u) {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return false
}

// cellsIntersect reports whether any cell of G-vertex v's ReachGrid
// overlaps r, and whether some overlapping cell lies fully inside r —
// the two signals of the G-vertex pruning rule. It scans the vertex's
// key run in place: the rule asks "is there a cell such that", never
// "is this cell present", so no lookup structure is needed.
func (idx *Index) cellsIntersect(v int, r geom.Rect) (intersects, contained bool) {
	for _, k := range idx.cells(v) {
		cr := idx.h.Rect(grid.CellFromKey(k))
		if !cr.Intersects(r) {
			continue
		}
		intersects = true
		if r.ContainsRect(cr) {
			return true, true
		}
	}
	return intersects, false
}

// CountKinds returns how many components fall in each class.
func (idx *Index) CountKinds() (g, r, b int) {
	for v := 0; 2*v < len(idx.flags); v++ {
		switch idx.kindOf(v) {
		case GVertex:
			g++
		case RVertex:
			r++
		default:
			b++
		}
	}
	return g, r, b
}

// MemoryBytes returns the SPA-Graph footprint: one class byte and GeoB
// bit per vertex, 32 bytes per stored RMBR and 8 bytes per ReachGrid
// cell (Table 4 accounting). RMBRs retained only for construction of
// parents are not counted for G/B vertices, matching what GeoReach
// materializes.
func (idx *Index) MemoryBytes() int64 {
	_, r, _ := idx.CountKinds()
	return int64(len(idx.flags)) + 32*int64(r) + 8*int64(len(idx.gridKeys))
}
