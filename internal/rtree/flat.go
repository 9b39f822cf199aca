package rtree

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/trace"
)

// Searcher is the read-only R-tree surface the query engines run on.
// Both the pointer-node Tree (built fresh) and the structure-of-arrays
// Flat (overlaid onto a persisted image) implement it, so an engine is
// oblivious to whether its spatial index was bulk-loaded or mmap'd.
type Searcher[B Bound[B]] interface {
	Len() int
	Height() int
	Search(query B, fn func(e Entry[B]) bool) bool
	SearchTraced(query B, sp *trace.Span, fn func(e Entry[B]) bool) bool
	SearchAny(query B) (Entry[B], bool)
	SearchAnyTraced(query B, sp *trace.Span) (Entry[B], bool)
	SearchAnyWhere(sp *trace.Span, meets func(*B) bool, keep func(id int32) bool) bool
	Count(query B) int
	All(fn func(e Entry[B]) bool) bool
	Bounds() (B, bool)
	MemoryBytes() int64
	Validate() error
}

// FlatBound is the bound constraint of the flat tree: a Bound that
// serializes to a flat float64 coordinate array (2·Dims values per
// bound; see geom.AppendCoords) which is also its memory layout — true
// of geom.Rect and geom.Box3, checked by coordsInPlace — so a stored
// bound is read, and handed out by pointer, in place.
type FlatBound[B any] interface {
	Bound[B]
	AppendCoords(dst []float64) []float64
}

// Flat is a read-only R-tree in structure-of-arrays layout, the form
// the flat index format persists. Nodes are stored in BFS order with
// node 0 the root; a node's children (or a leaf's entries) occupy one
// contiguous run, so the whole tree is four flat arrays that overlay a
// file section without any per-node allocation:
//
//	nodeBounds  numNodes × 2d float64 — min corner, max corner
//	nodeMeta    numNodes × 2 uint32   — {first, count<<1 | leafBit}
//	entryBounds size × 2d float64     — leaf entry bounds
//	entryIDs    size int32            — leaf entry ids
//
// The canonical BFS layout makes structural validation linear and
// cycle-proof: node i's children all have indexes > i, child runs are
// exactly consecutive, and the arrays' lengths pin every count.
type Flat[B FlatBound[B]] struct {
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

// Flatten converts a pointer tree into its canonical flat form. The
// traversal is deterministic (BFS, children in stored order), so equal
// trees flatten to byte-identical arrays — the property the format's
// byte-determinism tests pin.
func Flatten[B FlatBound[B]](t *Tree[B]) *Flat[B] {
	var zero B
	if !coordsInPlace[B]() {
		panic(fmt.Sprintf("rtree: %T is not laid out as its coordinate array", zero))
	}
	f := &Flat[B]{
		dims:           zero.Dims(),
		maxEntries:     t.maxEntries,
		height:         t.Height(),
		size:           t.size,
		leafBoundBytes: t.leafBoundBytes,
	}
	if t.root == nil {
		return f
	}
	order := []*node[B]{t.root}
	for i := 0; i < len(order); i++ {
		order = append(order, order[i].children...)
	}
	stride := 2 * f.dims
	f.nodeBounds = make([]float64, 0, len(order)*stride)
	f.nodeMeta = make([]uint32, 0, len(order)*2)
	f.entryBounds = make([]float64, 0, t.size*stride)
	f.entryIDs = make([]int32, 0, t.size)
	childStart, entryStart := 1, 0
	for _, n := range order {
		f.nodeBounds = n.bounds.AppendCoords(f.nodeBounds)
		if n.leaf {
			f.nodeMeta = append(f.nodeMeta, uint32(entryStart), uint32(len(n.entries))<<1|1)
			for _, e := range n.entries {
				f.entryBounds = e.Box.AppendCoords(f.entryBounds)
				f.entryIDs = append(f.entryIDs, e.ID)
			}
			entryStart += len(n.entries)
			continue
		}
		f.nodeMeta = append(f.nodeMeta, uint32(childStart), uint32(len(n.children))<<1)
		childStart += len(n.children)
	}
	return f
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
// canonical-BFS structure exhaustively so that corrupt data can neither
// panic nor loop a later query: array lengths must agree with the
// element counts, child and entry runs must tile the arrays exactly in
// order, fan-out and balance must hold, and the stored height must
// match the leaf depth. Bound containment — the geometric invariant —
// is checked separately by Validate, mirroring Tree.
func NewFlat[B FlatBound[B]](meta FlatMeta, nodeBounds []float64, nodeMeta []uint32, entryBounds []float64, entryIDs []int32) (*Flat[B], error) {
	var zero B
	dims := zero.Dims()
	stride := 2 * dims
	if !coordsInPlace[B]() {
		return nil, fmt.Errorf("rtree: %T is not laid out as its coordinate array", zero)
	}
	if meta.MaxEntries < 4 || meta.MaxEntries > 1<<20 {
		return nil, fmt.Errorf("rtree: implausible fan-out %d", meta.MaxEntries)
	}
	if meta.Size < 0 || meta.Height < 0 {
		return nil, fmt.Errorf("rtree: negative size %d or height %d", meta.Size, meta.Height)
	}
	if len(nodeMeta)%2 != 0 {
		return nil, fmt.Errorf("rtree: node meta length %d is odd", len(nodeMeta))
	}
	numNodes := len(nodeMeta) / 2
	if len(nodeBounds) != numNodes*stride {
		return nil, fmt.Errorf("rtree: %d node bound values for %d nodes (stride %d)",
			len(nodeBounds), numNodes, stride)
	}
	if len(entryIDs) != meta.Size {
		return nil, fmt.Errorf("rtree: %d entry ids for size %d", len(entryIDs), meta.Size)
	}
	if len(entryBounds) != meta.Size*stride {
		return nil, fmt.Errorf("rtree: %d entry bound values for %d entries (stride %d)",
			len(entryBounds), meta.Size, stride)
	}
	if numNodes == 0 {
		if meta.Size != 0 || meta.Height != 0 {
			return nil, fmt.Errorf("rtree: empty node table with size %d height %d", meta.Size, meta.Height)
		}
		return &Flat[B]{
			dims: dims, maxEntries: meta.MaxEntries,
			leafBoundBytes: meta.LeafBoundBytes,
		}, nil
	}

	// Canonical BFS check: walking nodes in index order, internal child
	// runs must start exactly where the previous one ended (so every
	// node except the root is referenced exactly once, forward-only —
	// no cycles, no orphans), and leaf entry runs must tile the entry
	// arrays the same way.
	nextChild, nextEntry := uint32(1), uint32(0)
	for i := 0; i < numNodes; i++ {
		first, meta2 := nodeMeta[2*i], nodeMeta[2*i+1]
		count := int(meta2 >> 1)
		if count == 0 && numNodes > 1 {
			return nil, fmt.Errorf("rtree: empty non-root node %d", i)
		}
		if count > meta.MaxEntries {
			return nil, fmt.Errorf("rtree: node %d holds %d, fan-out is %d", i, count, meta.MaxEntries)
		}
		if meta2&1 == 1 {
			if first != nextEntry {
				return nil, fmt.Errorf("rtree: leaf %d entries start at %d, want %d", i, first, nextEntry)
			}
			nextEntry += uint32(count)
			if int(nextEntry) > meta.Size {
				return nil, fmt.Errorf("rtree: leaf %d entry run ends at %d, past size %d", i, nextEntry, meta.Size)
			}
			continue
		}
		if first != nextChild {
			return nil, fmt.Errorf("rtree: node %d children start at %d, want %d", i, first, nextChild)
		}
		nextChild += uint32(count)
		if int(nextChild) > numNodes {
			return nil, fmt.Errorf("rtree: node %d child run ends at %d, past %d nodes", i, nextChild, numNodes)
		}
	}
	if int(nextChild) != numNodes {
		return nil, fmt.Errorf("rtree: %d of %d nodes are reachable", nextChild, numNodes)
	}
	if int(nextEntry) != meta.Size {
		return nil, fmt.Errorf("rtree: leaf runs cover %d entries, size says %d", nextEntry, meta.Size)
	}

	f := &Flat[B]{
		dims:           dims,
		maxEntries:     meta.MaxEntries,
		height:         meta.Height,
		size:           meta.Size,
		leafBoundBytes: meta.LeafBoundBytes,
		nodeBounds:     nodeBounds,
		nodeMeta:       nodeMeta,
		entryBounds:    entryBounds,
		entryIDs:       entryIDs,
	}
	// Height must equal the first-child chain depth; the BFS layout
	// puts every leaf at the same depth automatically (child indexes
	// are level-ordered), so checking one chain pins balance.
	h := 0
	for i := uint32(0); ; {
		h++
		if nodeMeta[2*i+1]&1 == 1 {
			break
		}
		i = nodeMeta[2*i]
	}
	if h != meta.Height {
		return nil, fmt.Errorf("rtree: stored height %d, structure has %d levels", meta.Height, h)
	}
	return f, nil
}

// coordsInPlace reports whether a B in memory is exactly its coordinate
// array, the condition for boundRef and entryRef to point into the
// arrays.
func coordsInPlace[B FlatBound[B]]() bool {
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

// boundAt returns a copy of node i's bound.
func (f *Flat[B]) boundAt(i uint32) B { return *f.boundRef(i) }

// entryAt returns a copy of leaf entry j.
func (f *Flat[B]) entryAt(j uint32) Entry[B] {
	return Entry[B]{Box: *f.entryRef(j), ID: f.entryIDs[j]}
}

// Len implements Searcher.
func (f *Flat[B]) Len() int { return f.size }

// Height implements Searcher.
func (f *Flat[B]) Height() int { return f.height }

// Bounds implements Searcher.
func (f *Flat[B]) Bounds() (B, bool) {
	var zero B
	if len(f.nodeMeta) == 0 {
		return zero, false
	}
	return f.boundAt(0), true
}

// Search implements Searcher.
func (f *Flat[B]) Search(query B, fn func(e Entry[B]) bool) bool {
	return f.SearchTraced(query, nil, fn)
}

// SearchTraced implements Searcher. The traversal is an explicit-stack
// DFS over node indexes; the stack buffer lives on the goroutine stack
// for every realistic height×fan-out, keeping the hot path free of
// allocations like the pointer tree's recursion.
func (f *Flat[B]) SearchTraced(query B, sp *trace.Span, fn func(e Entry[B]) bool) bool {
	if len(f.nodeMeta) == 0 {
		return true
	}
	var buf [128]uint32
	stack := buf[:0]
	stack = append(stack, 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !f.boundAt(i).Intersects(query) {
			continue
		}
		first, meta := f.nodeMeta[2*i], f.nodeMeta[2*i+1]
		count := meta >> 1
		if meta&1 == 1 {
			sp.IncLeaf()
			sp.AddEntries(int(count))
			for j := first; j < first+count; j++ {
				e := f.entryAt(j)
				if e.Box.Intersects(query) && !fn(e) {
					return false
				}
			}
			continue
		}
		sp.IncNode()
		// Push in reverse so children pop in stored order, matching the
		// pointer tree's visit order exactly.
		for c := first + count; c > first; c-- {
			stack = append(stack, c-1)
		}
	}
	return true
}

// SearchAny implements Searcher.
func (f *Flat[B]) SearchAny(query B) (Entry[B], bool) {
	return f.SearchAnyTraced(query, nil)
}

// SearchAnyTraced implements Searcher.
func (f *Flat[B]) SearchAnyTraced(query B, sp *trace.Span) (found Entry[B], ok bool) {
	f.SearchTraced(query, sp, func(e Entry[B]) bool {
		found, ok = e, true
		return false
	})
	return found, ok
}

// SearchAnyWhere implements Searcher with the contract of
// Tree.SearchAnyWhere: the same explicit-stack DFS as SearchTraced,
// testing each bound when it is popped, so meets sees the bounds of a
// flattened tree in the order the pointer tree's recursion presents
// them and the node, leaf and entry counts are identical. Bounds are
// passed as pointers into the arrays, so nothing is copied per node.
func (f *Flat[B]) SearchAnyWhere(sp *trace.Span, meets func(*B) bool, keep func(id int32) bool) bool {
	if len(f.nodeMeta) == 0 {
		return false
	}
	var buf [128]uint32
	stack := append(buf[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !meets(f.boundRef(i)) {
			continue
		}
		first, meta := f.nodeMeta[2*i], f.nodeMeta[2*i+1]
		count := meta >> 1
		if meta&1 == 1 {
			sp.IncLeaf()
			sp.AddEntries(int(count))
			for j := first; j < first+count; j++ {
				if meets(f.entryRef(j)) && keep(f.entryIDs[j]) {
					return true
				}
			}
			continue
		}
		sp.IncNode()
		for c := first + count; c > first; c-- {
			stack = append(stack, c-1)
		}
	}
	return false
}

// Count implements Searcher.
func (f *Flat[B]) Count(query B) int {
	count := 0
	f.Search(query, func(Entry[B]) bool {
		count++
		return true
	})
	return count
}

// All implements Searcher.
func (f *Flat[B]) All(fn func(e Entry[B]) bool) bool {
	for j := 0; j < f.size; j++ {
		if !fn(f.entryAt(uint32(j))) {
			return false
		}
	}
	return true
}

// MemoryBytes implements Searcher with the same accounting as the
// pointer tree (Table 4): per node one full bound, per leaf entry the
// (possibly overridden) leaf bound payload plus a 4-byte id, per child
// reference 4 bytes of index — the flat analogue of the child pointer.
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

// NumNodes returns the number of nodes.
func (f *Flat[B]) NumNodes() int { return len(f.nodeMeta) / 2 }

// Validate deep-checks the geometric invariant NewFlat defers: every
// node's bound contains its children's bounds (entry bounds in leaves).
// Structure (tiling, fan-out, balance) was already pinned by NewFlat,
// which is the only constructor from untrusted data.
func (f *Flat[B]) Validate() error {
	for i := 0; i < len(f.nodeMeta)/2; i++ {
		b := f.boundAt(uint32(i))
		first, meta := f.nodeMeta[2*i], f.nodeMeta[2*i+1]
		count := meta >> 1
		if meta&1 == 1 {
			for j := first; j < first+count; j++ {
				if !b.Contains(f.entryAt(j).Box) {
					return fmt.Errorf("rtree: leaf %d bound does not contain entry %d", i, j)
				}
			}
			continue
		}
		for c := first; c < first+count; c++ {
			if !b.Contains(f.boundAt(c)) {
				return fmt.Errorf("rtree: node %d bound does not contain child %d", i, c)
			}
		}
	}
	return nil
}
