package rtree

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/trace"
)

// Flat is a read-only R-tree in structure-of-arrays layout, the form
// BulkLoad produces and the flat index format persists. Nodes are stored
// in BFS order with node 0 the root; a node's children (or a leaf's
// entries) occupy one contiguous run, so the whole tree is four flat
// arrays that overlay a file section without any per-node allocation:
//
//	nodeBounds  numNodes × 2d float64 — min corner, max corner
//	nodeMeta    numNodes × 2 uint32   — {first, count<<1 | leafBit}
//	entryBounds size × 2d float64     — leaf entry bounds
//	entryIDs    size int32            — leaf entry ids
//
// The canonical BFS layout makes structural validation linear and
// cycle-proof: node i's children all have indexes > i, child runs are
// exactly consecutive, and the arrays' lengths pin every count. A Flat
// is immutable once built, so any number of readers may share it.
type Flat[B Bound[B]] struct {
	dims           int
	maxEntries     int
	height         int
	size           int
	leafBoundBytes int

	nodeBounds  []float64
	nodeMeta    []uint32
	entryBounds []float64
	entryIDs    []int32
}

// FlatMeta carries the scalar shape of a flat tree through a manifest.
type FlatMeta struct {
	MaxEntries     int
	Height         int
	Size           int
	LeafBoundBytes int
}

// Meta returns the manifest scalars of f.
func (f *Flat[B]) Meta() FlatMeta {
	return FlatMeta{
		MaxEntries:     f.maxEntries,
		Height:         f.height,
		Size:           f.size,
		LeafBoundBytes: f.leafBoundBytes,
	}
}

// Raw returns the four flat arrays for persistence. The slices alias
// the tree's storage and must not be mutated.
func (f *Flat[B]) Raw() (nodeBounds []float64, nodeMeta []uint32, entryBounds []float64, entryIDs []int32) {
	return f.nodeBounds, f.nodeMeta, f.entryBounds, f.entryIDs
}

// NewFlat assembles a flat tree from persisted arrays, validating the
// canonical-BFS structure exhaustively (see checkStructure) so that
// corrupt data can neither panic nor loop a later query. Bound
// containment — the geometric invariant — is left to Validate.
func NewFlat[B Bound[B]](meta FlatMeta, nodeBounds []float64, nodeMeta []uint32, entryBounds []float64, entryIDs []int32) (*Flat[B], error) {
	var zero B
	if !coordsInPlace[B]() {
		return nil, fmt.Errorf("rtree: %T is not laid out as its coordinate array", zero)
	}
	f := &Flat[B]{
		dims:           zero.Dims(),
		maxEntries:     meta.MaxEntries,
		height:         meta.Height,
		size:           meta.Size,
		leafBoundBytes: meta.LeafBoundBytes,
		nodeBounds:     nodeBounds,
		nodeMeta:       nodeMeta,
		entryBounds:    entryBounds,
		entryIDs:       entryIDs,
	}
	if err := f.checkStructure(); err != nil {
		return nil, err
	}
	return f, nil
}

// maxHeight bounds the stored height. A bulk load at fan-out ≥ 4 over
// fewer than 2³¹ entries stays below 17 levels; the bound keeps a forged
// chain of one-child nodes from driving anyWhere's recursion deep.
const maxHeight = 32

// checkStructure checks everything about f but the geometry, in one
// pass and constant space: array lengths agree with the element counts,
// child and entry runs tile the arrays exactly in order, no node exceeds
// the fan-out or (the root of an empty tree aside) is empty, every leaf
// sits at the same depth, and the stored height is that depth.
func (f *Flat[B]) checkStructure() error {
	stride := 2 * f.dims
	if f.maxEntries < minFanout || f.maxEntries > maxFanout {
		return fmt.Errorf("rtree: implausible fan-out %d", f.maxEntries)
	}
	if f.size < 0 || f.height < 0 || f.height > maxHeight {
		return fmt.Errorf("rtree: implausible size %d or height %d", f.size, f.height)
	}
	if len(f.nodeMeta)%2 != 0 {
		return fmt.Errorf("rtree: node meta length %d is odd", len(f.nodeMeta))
	}
	numNodes := len(f.nodeMeta) / 2
	if len(f.nodeBounds) != numNodes*stride {
		return fmt.Errorf("rtree: %d node bound values for %d nodes (stride %d)",
			len(f.nodeBounds), numNodes, stride)
	}
	if len(f.entryIDs) != f.size {
		return fmt.Errorf("rtree: %d entry ids for size %d", len(f.entryIDs), f.size)
	}
	if len(f.entryBounds) != f.size*stride {
		return fmt.Errorf("rtree: %d entry bound values for %d entries (stride %d)",
			len(f.entryBounds), f.size, stride)
	}
	if numNodes == 0 {
		if f.size != 0 || f.height != 0 {
			return fmt.Errorf("rtree: empty node table with size %d height %d", f.size, f.height)
		}
		return nil
	}

	// Canonical BFS check: walking nodes in index order, internal child
	// runs must start exactly where the previous one ended (so every
	// node except the root is referenced exactly once, forward-only —
	// no cycles, no orphans), and leaf entry runs must tile the entry
	// arrays the same way. Consecutive runs make each level one index
	// range, ending where the level above's last child run ends; the
	// tree is balanced iff no level mixes leaves and internal nodes.
	nextChild, nextEntry := uint32(1), uint32(0)
	levels, levelEnd, levelLeaf := 0, 0, false
	for i := 0; i < numNodes; i++ {
		first, meta := f.nodeMeta[2*i], f.nodeMeta[2*i+1]
		count, leaf := int(meta>>1), meta&1 == 1
		if i == levelEnd {
			levels, levelEnd, levelLeaf = levels+1, int(nextChild), leaf
		} else if leaf != levelLeaf {
			return fmt.Errorf("rtree: node %d: level %d mixes leaves and internal nodes; tree is not balanced", i, levels)
		}
		if count == 0 && numNodes > 1 {
			return fmt.Errorf("rtree: empty non-root node %d", i)
		}
		if count > f.maxEntries {
			return fmt.Errorf("rtree: node %d holds %d, fan-out is %d", i, count, f.maxEntries)
		}
		if leaf {
			if first != nextEntry {
				return fmt.Errorf("rtree: leaf %d entries start at %d, want %d", i, first, nextEntry)
			}
			nextEntry += uint32(count)
			if int(nextEntry) > f.size {
				return fmt.Errorf("rtree: leaf %d entry run ends at %d, past size %d", i, nextEntry, f.size)
			}
			continue
		}
		if first != nextChild {
			return fmt.Errorf("rtree: node %d children start at %d, want %d", i, first, nextChild)
		}
		nextChild += uint32(count)
		if int(nextChild) > numNodes {
			return fmt.Errorf("rtree: node %d child run ends at %d, past %d nodes", i, nextChild, numNodes)
		}
	}
	if int(nextChild) != numNodes {
		return fmt.Errorf("rtree: %d of %d nodes are reachable", nextChild, numNodes)
	}
	if int(nextEntry) != f.size {
		return fmt.Errorf("rtree: leaf runs cover %d entries, size says %d", nextEntry, f.size)
	}
	if levels != f.height {
		return fmt.Errorf("rtree: stored height %d, structure has %d levels", f.height, levels)
	}
	return nil
}

// coordsInPlace reports whether a B in memory is exactly its coordinate
// array, the condition for boundRef, entryRef and coordsOf.
func coordsInPlace[B Bound[B]]() bool {
	var zero B
	probe := make([]float64, 2*zero.Dims())
	for i := range probe {
		probe[i] = float64(i + 1)
	}
	if unsafe.Sizeof(zero) != uintptr(len(probe))*unsafe.Sizeof(probe[0]) {
		return false
	}
	return slices.Equal((*(*B)(unsafe.Pointer(&probe[0]))).AppendCoords(nil), probe)
}

// boundRef returns node i's bound in place (see coordsInPlace): on a
// mapped index, a pointer into the file's pages.
func (f *Flat[B]) boundRef(i uint32) *B {
	return (*B)(unsafe.Pointer(&f.nodeBounds[int(i)*2*f.dims]))
}

// entryRef returns leaf entry j's bound in place.
func (f *Flat[B]) entryRef(j uint32) *B {
	return (*B)(unsafe.Pointer(&f.entryBounds[int(j)*2*f.dims]))
}

// entryAt returns a copy of leaf entry j.
func (f *Flat[B]) entryAt(j uint32) Entry[B] {
	return Entry[B]{Box: *f.entryRef(j), ID: f.entryIDs[j]}
}

// coordsOf views *b as its coordinate array (see coordsInPlace).
func (f *Flat[B]) coordsOf(b *B) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(b)), 2*f.dims)
}

// intersects is B.Intersects over coordinate arrays: b holds a stored
// bound at offset at, q the query. The kernels compare here because a
// method call on the type parameter is not inlined and takes both
// bounds by value.
func intersects(b []float64, at int, q []float64) bool {
	dims := len(q) / 2
	b = b[at : at+len(q)]
	for d := 0; d < dims; d++ {
		if !(b[d] <= q[dims+d] && q[d] <= b[dims+d]) {
			return false
		}
	}
	return true
}

// Len returns the number of stored entries.
func (f *Flat[B]) Len() int { return f.size }

// Height returns the number of levels in the tree (0 when empty).
func (f *Flat[B]) Height() int { return f.height }

// NumNodes returns the number of nodes.
func (f *Flat[B]) NumNodes() int { return len(f.nodeMeta) / 2 }

// Bounds returns the bounding shape of the whole tree and whether the
// tree is non-empty.
func (f *Flat[B]) Bounds() (B, bool) {
	var zero B
	if len(f.nodeMeta) == 0 {
		return zero, false
	}
	return *f.boundRef(0), true
}

// Search calls fn for every entry whose bound intersects query. If fn
// returns false the search stops immediately and Search returns false;
// otherwise it returns true after visiting all intersecting entries.
func (f *Flat[B]) Search(query B, fn func(e Entry[B]) bool) bool {
	return f.SearchTraced(query, nil, fn)
}

// SearchTraced is Search with per-node instrumentation: expanded
// internal nodes, expanded leaves and tested leaf entries accumulate
// into sp. A nil sp makes it exactly Search — the counting hooks reduce
// to one predictable branch per node. The traversal is an explicit-stack
// DFS over node indexes; the stack buffer lives on the goroutine stack
// for every realistic height×fan-out, keeping the hot path free of
// allocations.
func (f *Flat[B]) SearchTraced(query B, sp *trace.Span, fn func(e Entry[B]) bool) bool {
	if len(f.nodeMeta) == 0 {
		return true
	}
	q := f.coordsOf(&query)
	stride := len(q)
	var buf [128]uint32
	stack := buf[:0]
	stack = append(stack, 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !intersects(f.nodeBounds, int(i)*stride, q) {
			continue
		}
		first, meta := f.nodeMeta[2*i], f.nodeMeta[2*i+1]
		count := meta >> 1
		if meta&1 == 1 {
			sp.IncLeaf()
			sp.AddEntries(int(count))
			bounds := f.entryBounds[int(first)*stride : int(first+count)*stride]
			for k, id := range f.entryIDs[first : first+count] {
				if intersects(bounds, k*stride, q) && !fn(Entry[B]{Box: *(*B)(unsafe.Pointer(&bounds[k*stride])), ID: id}) {
					return false
				}
			}
			continue
		}
		sp.IncNode()
		// Push in reverse so children pop in stored order.
		for c := first + count; c > first; c-- {
			stack = append(stack, c-1)
		}
	}
	return true
}

// SearchAny returns some entry intersecting query, or ok=false if none
// exists. It is the primitive RangeReach engines use: the query needs a
// single witness.
func (f *Flat[B]) SearchAny(query B) (Entry[B], bool) {
	return f.SearchAnyTraced(query, nil)
}

// SearchAnyTraced is SearchAny with instrumentation (see SearchTraced).
func (f *Flat[B]) SearchAnyTraced(query B, sp *trace.Span) (found Entry[B], ok bool) {
	f.SearchTraced(query, sp, func(e Entry[B]) bool {
		found, ok = e, true
		return false
	})
	return found, ok
}

// SearchAnyWhere reports whether some entry e has meets(&e.Box),
// descending only into nodes whose bounds pass meets. It generalises
// SearchAny from one query box to any region the caller can test a
// bound against — meets must be monotone (true for a bound whenever it
// is true for something inside it) — so a union of boxes costs one
// traversal that expands each qualifying node once instead of one
// search per box. Bounds go to meets as pointers into the arrays: a
// copy of a 3D box per node is measurable on this path. Node, leaf and
// entry counts accumulate into sp exactly as in SearchTraced.
func (f *Flat[B]) SearchAnyWhere(sp *trace.Span, meets func(*B) bool) bool {
	return len(f.nodeMeta) != 0 && meets(f.boundRef(0)) && f.anyWhere(0, sp, meets)
}

// anyWhere expands node i, whose bound the caller has already tested.
// Testing a child before descending, by recursion (at most height deep),
// measured faster under the dynamic engine's probes than an explicit
// stack that tests a bound when it is popped; so did slicing a node's
// run of bounds once instead of indexing f's arrays per child (8 % of
// churn's query_p50_us).
func (f *Flat[B]) anyWhere(i uint32, sp *trace.Span, meets func(*B) bool) bool {
	first, meta := f.nodeMeta[2*i], f.nodeMeta[2*i+1]
	count, stride := meta>>1, 2*f.dims
	if meta&1 == 1 {
		sp.IncLeaf()
		sp.AddEntries(int(count))
		bounds := f.entryBounds[int(first)*stride : int(first+count)*stride]
		for k := range int(count) {
			if meets((*B)(unsafe.Pointer(&bounds[k*stride]))) {
				return true
			}
		}
		return false
	}
	sp.IncNode()
	bounds := f.nodeBounds[int(first)*stride : int(first+count)*stride]
	for k := uint32(0); k < count; k++ {
		if meets((*B)(unsafe.Pointer(&bounds[int(k)*stride]))) && f.anyWhere(first+k, sp, meets) {
			return true
		}
	}
	return false
}

// Count returns the number of entries intersecting query.
func (f *Flat[B]) Count(query B) int {
	count := 0
	f.Search(query, func(Entry[B]) bool {
		count++
		return true
	})
	return count
}

// All calls fn for every entry in the tree.
func (f *Flat[B]) All(fn func(e Entry[B]) bool) bool {
	for j := 0; j < f.size; j++ {
		if !fn(f.entryAt(uint32(j))) {
			return false
		}
	}
	return true
}

// MemoryBytes returns the approximate footprint of the tree, the
// index-size accounting behind Table 4: per node one full bound, per
// leaf entry the (possibly overridden, see BulkLoad) leaf bound payload
// plus a 4-byte id, per child reference 8 bytes.
func (f *Flat[B]) MemoryBytes() int64 {
	numNodes := len(f.nodeMeta) / 2
	if numNodes == 0 {
		return 0
	}
	full := 16 * f.dims
	leafBytes := f.leafBoundBytes
	if leafBytes <= 0 {
		leafBytes = full
	}
	total := int64(numNodes) * int64(full)
	total += int64(f.size) * int64(leafBytes+4)
	for i := 0; i < numNodes; i++ {
		if f.nodeMeta[2*i+1]&1 == 0 {
			total += int64(f.nodeMeta[2*i+1]>>1) * 8
		}
	}
	return total
}

// Validate deep-checks the tree and returns a descriptive error for the
// first violation: the structure NewFlat admits (checkStructure) and the
// geometric invariant it defers — every node's bound contains its
// children's bounds, entry bounds in leaves. It runs in O(size) and
// exists for tests, rrserve -check and -check-publish, and the
// post-load validation of persisted indexes.
func (f *Flat[B]) Validate() error {
	if err := f.checkStructure(); err != nil {
		return err
	}
	for i := 0; i < len(f.nodeMeta)/2; i++ {
		b := *f.boundRef(uint32(i))
		first, meta := f.nodeMeta[2*i], f.nodeMeta[2*i+1]
		count := meta >> 1
		if meta&1 == 1 {
			for j := first; j < first+count; j++ {
				if !b.Contains(*f.entryRef(j)) {
					return fmt.Errorf("rtree: leaf %d bound does not contain entry %d (id %d)", i, j, f.entryIDs[j])
				}
			}
			continue
		}
		for c := first; c < first+count; c++ {
			if !b.Contains(*f.boundRef(c)) {
				return fmt.Errorf("rtree: node %d bound does not contain child %d", i, c)
			}
		}
	}
	return nil
}
