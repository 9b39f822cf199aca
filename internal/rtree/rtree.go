// Package rtree implements an in-memory R-tree over 2D rectangles or 3D
// boxes, replacing the Boost R-tree the paper uses (§6.1). It backs every
// spatial index of the library: the 2D point index of SpaReach, the 3D
// point index of 3DReach and the 3D vertical-segment index of
// 3DReach-Rev, as well as the MBR-based variants of all three (paper §5).
//
// Construction is Sort-Tile-Recursive (STR) bulk loading; dynamic
// insertion uses Guttman's ChooseLeaf with quadratic node splitting.
// Search supports early termination, which RangeReach evaluation relies
// on: a query stops at the first witness.
package rtree

import (
	"math"
	"sort"

	"repro/internal/pool"
	"repro/internal/trace"
)

// Bound abstracts the axis-aligned bounding shapes the tree can index.
// geom.Rect and geom.Box3 implement it.
type Bound[B any] interface {
	Union(B) B
	Enlargement(B) float64
	Intersects(B) bool
	Contains(B) bool
	Measure() float64
	Margin() float64
	Dims() int
	CenterCoord(d int) float64
}

// Entry is a leaf record: a bounding shape plus the caller's identifier
// (in this library, a vertex id or a post-order number).
type Entry[B Bound[B]] struct {
	Box B
	ID  int32
}

// DefaultMaxEntries is the default node fan-out.
const DefaultMaxEntries = 16

// Tree is an R-tree over bounds of type B.
type Tree[B Bound[B]] struct {
	root       *node[B]
	size       int
	maxEntries int
	minEntries int
	// leafBoundBytes overrides the per-leaf-entry bound size used by
	// MemoryBytes; see SetLeafBoundBytes.
	leafBoundBytes int
}

type node[B Bound[B]] struct {
	bounds   B
	leaf     bool
	entries  []Entry[B] // populated iff leaf
	children []*node[B] // populated iff !leaf
}

// New returns an empty tree with the given fan-out (0 selects
// DefaultMaxEntries).
func New[B Bound[B]](maxEntries int) *Tree[B] {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxEntries < 4 {
		maxEntries = 4
	}
	return &Tree[B]{maxEntries: maxEntries, minEntries: maxEntries * 2 / 5}
}

// BulkLoad builds a tree over the given entries using Sort-Tile-Recursive
// packing. The entries slice is reordered in place. A fan-out of 0
// selects DefaultMaxEntries.
func BulkLoad[B Bound[B]](entries []Entry[B], maxEntries int) *Tree[B] {
	return BulkLoadPool(entries, maxEntries, nil)
}

// BulkLoadPool is BulkLoad with a worker pool: the top-level STR slabs
// tile concurrently and leaf bounds are computed concurrently. A nil or
// sequential pool is exactly BulkLoad. The tree is identical either way:
// slab boundaries are fixed by the (sequential) top-level sort, each slab
// runs the same per-slab code over its own disjoint sub-slice, and the
// leaf groups are concatenated in slab order.
func BulkLoadPool[B Bound[B]](entries []Entry[B], maxEntries int, p *pool.Pool) *Tree[B] {
	t := New[B](maxEntries)
	if len(entries) == 0 {
		return t
	}
	t.size = len(entries)
	leaves := strPack(entries, t.maxEntries, p)
	nodes := make([]*node[B], len(leaves))
	makeLeaf := func(i int) {
		n := &node[B]{leaf: true, entries: leaves[i]}
		n.recomputeBounds()
		nodes[i] = n
	}
	if p.Sequential() {
		for i := range leaves {
			makeLeaf(i)
		}
	} else {
		_ = p.ForEach(len(leaves), func(i int) error { makeLeaf(i); return nil })
	}
	// Pack upper levels until a single root remains. Upper levels hold
	// ~1/maxEntries of the nodes below; not worth fanning out.
	for len(nodes) > 1 {
		nodes = packLevel(nodes, t.maxEntries)
	}
	t.root = nodes[0]
	return t
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
		if dim == 0 && !p.Sequential() && len(subs) > 1 {
			results := make([][][]Entry[B], len(subs))
			_ = p.ForEach(len(subs), func(i int) error {
				results[i] = tile(subs[i], dim+1)
				return nil
			})
			var out [][]Entry[B]
			for _, r := range results {
				out = append(out, r...)
			}
			return out
		}
		var out [][]Entry[B]
		for _, sub := range subs {
			out = append(out, tile(sub, dim+1)...)
		}
		return out
	}
	return tile(entries, 0)
}

// packLevel groups child nodes into parents of at most maxEntries,
// ordered by the first center coordinate.
func packLevel[B Bound[B]](nodes []*node[B], maxEntries int) []*node[B] {
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].bounds.CenterCoord(0) < nodes[j].bounds.CenterCoord(0)
	})
	var parents []*node[B]
	for i := 0; i < len(nodes); i += maxEntries {
		end := i + maxEntries
		if end > len(nodes) {
			end = len(nodes)
		}
		p := &node[B]{children: append([]*node[B](nil), nodes[i:end]...)}
		p.recomputeBounds()
		parents = append(parents, p)
	}
	return parents
}

func (n *node[B]) recomputeBounds() {
	if n.leaf {
		b := n.entries[0].Box
		for _, e := range n.entries[1:] {
			b = b.Union(e.Box)
		}
		n.bounds = b
		return
	}
	b := n.children[0].bounds
	for _, c := range n.children[1:] {
		b = b.Union(c.bounds)
	}
	n.bounds = b
}

// Len returns the number of stored entries.
func (t *Tree[B]) Len() int { return t.size }

// Height returns the number of levels in the tree (0 when empty).
func (t *Tree[B]) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.leaf {
			break
		}
		n = n.children[0]
	}
	return h
}

// Search calls fn for every entry whose bound intersects query. If fn
// returns false the search stops immediately and Search returns false;
// otherwise it returns true after visiting all intersecting entries.
func (t *Tree[B]) Search(query B, fn func(e Entry[B]) bool) bool {
	return t.SearchTraced(query, nil, fn)
}

// SearchTraced is Search with per-node instrumentation: expanded
// internal nodes, expanded leaves and tested leaf entries accumulate
// into sp. A nil sp makes it exactly Search — the counting hooks reduce
// to one predictable branch per node.
func (t *Tree[B]) SearchTraced(query B, sp *trace.Span, fn func(e Entry[B]) bool) bool {
	if t.root == nil {
		return true
	}
	return t.root.search(query, sp, fn)
}

func (n *node[B]) search(query B, sp *trace.Span, fn func(e Entry[B]) bool) bool {
	if !n.bounds.Intersects(query) {
		return true
	}
	if n.leaf {
		sp.IncLeaf()
		sp.AddEntries(len(n.entries))
		for _, e := range n.entries {
			if e.Box.Intersects(query) {
				if !fn(e) {
					return false
				}
			}
		}
		return true
	}
	sp.IncNode()
	for _, c := range n.children {
		if !c.search(query, sp, fn) {
			return false
		}
	}
	return true
}

// SearchAny returns some entry intersecting query, or ok=false if none
// exists. It is the primitive RangeReach engines use: the query needs a
// single witness. SearchAny short-circuits aggressively — a node whose
// bounds are fully contained in the query yields its first entry without
// descending further comparisons.
func (t *Tree[B]) SearchAny(query B) (found Entry[B], ok bool) {
	return t.SearchAnyTraced(query, nil)
}

// SearchAnyTraced is SearchAny with instrumentation (see SearchTraced).
func (t *Tree[B]) SearchAnyTraced(query B, sp *trace.Span) (found Entry[B], ok bool) {
	t.SearchTraced(query, sp, func(e Entry[B]) bool {
		found, ok = e, true
		return false
	})
	return found, ok
}

// SearchAnyWhere reports whether some entry e has meets(&e.Box) and
// keep(e.ID), descending only into nodes whose bounds pass meets. It
// generalises SearchAny from one query box to any region the caller can
// test a bound against — meets must be monotone (true for a bound
// whenever it is true for something inside it) — so a union of boxes
// costs one traversal that expands each qualifying node once instead of
// one search per box. keep filters witnesses by identifier (the dynamic
// engine's tombstones, the MBR policy's member verification). Bounds go
// to meets by pointer: a copy of a 3D box per node is measurable on
// this path. Node, leaf and entry counts
// accumulate into sp exactly as in SearchTraced.
func (t *Tree[B]) SearchAnyWhere(sp *trace.Span, meets func(*B) bool, keep func(id int32) bool) bool {
	return t.root != nil && meets(&t.root.bounds) && t.root.anyWhere(sp, meets, keep)
}

// anyWhere expands n, whose bounds the caller has already tested.
func (n *node[B]) anyWhere(sp *trace.Span, meets func(*B) bool, keep func(id int32) bool) bool {
	if n.leaf {
		sp.IncLeaf()
		sp.AddEntries(len(n.entries))
		for i := range n.entries {
			if e := &n.entries[i]; meets(&e.Box) && keep(e.ID) {
				return true
			}
		}
		return false
	}
	sp.IncNode()
	for _, c := range n.children {
		if meets(&c.bounds) && c.anyWhere(sp, meets, keep) {
			return true
		}
	}
	return false
}

// Count returns the number of entries intersecting query.
func (t *Tree[B]) Count(query B) int {
	count := 0
	t.Search(query, func(Entry[B]) bool {
		count++
		return true
	})
	return count
}

// All calls fn for every entry in the tree.
func (t *Tree[B]) All(fn func(e Entry[B]) bool) bool {
	if t.root == nil {
		return true
	}
	return t.root.all(fn)
}

func (n *node[B]) all(fn func(e Entry[B]) bool) bool {
	if n.leaf {
		for _, e := range n.entries {
			if !fn(e) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !c.all(fn) {
			return false
		}
	}
	return true
}

// Bounds returns the bounding shape of the whole tree and whether the
// tree is non-empty.
func (t *Tree[B]) Bounds() (B, bool) {
	var zero B
	if t.root == nil {
		return zero, false
	}
	return t.root.bounds, true
}
