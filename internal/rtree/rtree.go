// Package rtree implements a read-only in-memory R-tree over 2D
// rectangles or 3D boxes, replacing the Boost R-tree the paper uses
// (§6.1). In the library it is 2D only: SpaReach's spatial index. In
// internal/bench it is also rrbench's MBR arm (paper §5) and, in 3D,
// the paper's point R-tree that ablation-3d measures. 3DReach and
// 3DReach-Rev index every venue, point or extent, in internal/tiles, and
// no index file holds an R-tree.
//
// There is one tree form, Flat: four arrays in canonical BFS order,
// which Sort-Tile-Recursive (STR) bulk loading produces. Nothing is
// inserted after the load. Search supports early termination, which
// RangeReach evaluation relies on: a query stops at the first witness.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/pool"
)

// Bound abstracts the axis-aligned bounding shapes the tree can index.
// geom.Rect and geom.Box3 implement it. A bound serializes to a flat
// float64 coordinate array (2·Dims values; see geom.AppendCoords) which
// is also its memory layout — checked by coordsInPlace — so a stored
// bound is read in place.
type Bound[B any] interface {
	Union(B) B
	Contains(B) bool
	Dims() int
	CenterCoord(d int) float64
	AppendCoords(dst []float64) []float64
}

// Entry is a leaf record: a bounding shape plus the caller's identifier
// (in this library, a vertex id or a post-order number).
type Entry[B Bound[B]] struct {
	Box B
	ID  int32
}

// DefaultMaxEntries is the default node fan-out.
const DefaultMaxEntries = 16

// The legal node fan-out. BulkLoad clamps into the range and Validate
// rejects a tree whose fan-out lies outside it.
const (
	minFanout = 4
	maxFanout = 1 << 20
)

// BulkLoad builds a tree over the given entries using Sort-Tile-Recursive
// packing. The entries slice is reordered in place and not retained. A
// fan-out of 0 selects DefaultMaxEntries; other values are clamped to
// [4, 1<<20]. leafBoundBytes overrides the per-leaf-entry bound size
// used by MemoryBytes: the paper's Table 4 distinguishes R-trees over
// points (16/24 bytes in 2D/3D), vertical segments and full boxes, and
// a tree built over point data accounts for point-sized leaf payloads
// even though it stores a degenerate box. 0 selects the structural size.
func BulkLoad[B Bound[B]](entries []Entry[B], maxEntries, leafBoundBytes int) *Flat[B] {
	return BulkLoadPool(entries, maxEntries, leafBoundBytes, nil)
}

// BulkLoadPool is BulkLoad with a worker pool: the top-level STR slabs
// tile concurrently and leaf bounds are computed concurrently. A nil or
// sequential pool is exactly BulkLoad. The tree is identical either way:
// slab boundaries are fixed by the (sequential) top-level sort, each slab
// runs the same per-slab code over its own disjoint sub-slice, and the
// leaf groups are concatenated in slab order.
func BulkLoadPool[B Bound[B]](entries []Entry[B], maxEntries, leafBoundBytes int, p *pool.Pool) *Flat[B] {
	var zero B
	if !coordsInPlace[B]() {
		panic(fmt.Sprintf("rtree: %T is not laid out as its coordinate array", zero))
	}
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	f := &Flat[B]{
		dims:           zero.Dims(),
		maxEntries:     min(max(maxEntries, minFanout), maxFanout),
		size:           len(entries),
		leafBoundBytes: leafBoundBytes,
	}
	if len(entries) == 0 {
		return f
	}
	groups := strPack(entries, f.maxEntries, p)
	leaves := make([]packed[B], len(groups))
	makeLeaf := func(i int) {
		b := groups[i][0].Box
		for _, e := range groups[i][1:] {
			b = b.Union(e.Box)
		}
		leaves[i] = packed[B]{bounds: b, lo: i}
	}
	p.ForEach(len(groups), makeLeaf)
	// Pack upper levels until a single root remains. Upper levels hold
	// ~1/maxEntries of the nodes below; not worth fanning out.
	levels := [][]packed[B]{leaves}
	for top := leaves; len(top) > 1; {
		top = packLevel(top, f.maxEntries)
		levels = append(levels, top)
	}
	f.height = len(levels)
	f.flatten(levels, groups)
	return f
}

// packed is a node during bulk loading. A leaf's lo indexes its entry
// group; an internal node's children are positions lo..hi-1 of the level
// below, which packLevel has sorted by then.
type packed[B Bound[B]] struct {
	bounds B
	lo, hi int
}

// strPack tiles entries into leaf groups of at most maxEntries using the
// STR algorithm, recursing over the dimensions of B. Top-level slabs may
// tile in parallel; each returns its own leaf groups and the results are
// concatenated in slab order, so the output is independent of p.
func strPack[B Bound[B]](entries []Entry[B], maxEntries int, p *pool.Pool) [][]Entry[B] {
	var tile func(es []Entry[B], dim int) [][]Entry[B]
	dims := entries[0].Box.Dims()
	tile = func(es []Entry[B], dim int) [][]Entry[B] {
		sort.Slice(es, func(i, j int) bool {
			return es[i].Box.CenterCoord(dim) < es[j].Box.CenterCoord(dim)
		})
		if dim == dims-1 || len(es) <= maxEntries {
			groups := make([][]Entry[B], 0, (len(es)+maxEntries-1)/maxEntries)
			for i := 0; i < len(es); i += maxEntries {
				end := i + maxEntries
				if end > len(es) {
					end = len(es)
				}
				groups = append(groups, es[i:end:end])
			}
			return groups
		}
		leafCount := (len(es) + maxEntries - 1) / maxEntries
		slabs := int(math.Ceil(math.Pow(float64(leafCount), 1/float64(dims-dim))))
		if slabs < 1 {
			slabs = 1
		}
		per := (len(es) + slabs - 1) / slabs
		var subs [][]Entry[B]
		for i := 0; i < len(es); i += per {
			end := i + per
			if end > len(es) {
				end = len(es)
			}
			subs = append(subs, es[i:end:end])
		}
		// Only the top-level slabs fan out; the nil pool runs inline.
		var q *pool.Pool
		if dim == 0 {
			q = p
		}
		results := make([][][]Entry[B], len(subs))
		q.ForEach(len(subs), func(i int) { results[i] = tile(subs[i], dim+1) })
		var out [][]Entry[B]
		for _, r := range results {
			out = append(out, r...)
		}
		return out
	}
	return tile(entries, 0)
}

// packLevel sorts nodes by the first center coordinate and groups them
// into parents of at most maxEntries.
func packLevel[B Bound[B]](nodes []packed[B], maxEntries int) []packed[B] {
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].bounds.CenterCoord(0) < nodes[j].bounds.CenterCoord(0)
	})
	parents := make([]packed[B], 0, (len(nodes)+maxEntries-1)/maxEntries)
	for i := 0; i < len(nodes); i += maxEntries {
		end := min(i+maxEntries, len(nodes))
		b := nodes[i].bounds
		for _, c := range nodes[i+1 : end] {
			b = b.Union(c.bounds)
		}
		parents = append(parents, packed[B]{bounds: b, lo: i, hi: end})
	}
	return parents
}

// flatten writes the packed levels (leaves first, root last) into f's
// four arrays in canonical BFS order: the root, then level by level every
// node's children in stored order, so equal inputs give byte-identical
// arrays — the property the format's byte-determinism tests pin.
func (f *Flat[B]) flatten(levels [][]packed[B], groups [][]Entry[B]) {
	numNodes := 0
	for _, level := range levels {
		numNodes += len(level)
	}
	stride := 2 * f.dims
	f.nodeBounds = make([]float64, numNodes*stride)
	f.nodeMeta = make([]uint32, 0, numNodes*2)
	f.entryBounds = make([]float64, f.size*stride)
	f.entryIDs = make([]int32, 0, f.size)
	order := []int{0} // positions, within the current level, in BFS order
	childStart := 1
	for l := len(levels) - 1; l >= 0; l-- {
		var below []int
		for _, pos := range order {
			n := &levels[l][pos]
			*f.boundRef(uint32(len(f.nodeMeta) / 2)) = n.bounds
			if l == 0 {
				first := len(f.entryIDs)
				for _, e := range groups[n.lo] {
					*f.entryRef(uint32(len(f.entryIDs))) = e.Box
					f.entryIDs = append(f.entryIDs, e.ID)
				}
				f.nodeMeta = append(f.nodeMeta, uint32(first), uint32(len(groups[n.lo]))<<1|1)
				continue
			}
			f.nodeMeta = append(f.nodeMeta, uint32(childStart), uint32(n.hi-n.lo)<<1)
			childStart += n.hi - n.lo
			for c := n.lo; c < n.hi; c++ {
				below = append(below, c)
			}
		}
		order = below
	}
}
