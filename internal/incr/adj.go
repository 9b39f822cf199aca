package incr

import (
	"slices"

	"repro/internal/graph"
)

// dagEdge is one entry of a component's DAG adjacency: the neighbouring
// component and the number of original edges that collapse onto the
// DAG edge between the two.
type dagEdge struct{ to, cnt int32 }

// adjRow is a component's successors (in outC) or predecessors (in
// inC), ascending by to. The giant component of a social network has
// tens of thousands of successors and every relabel, merge and cycle
// search walks them, so the row is one contiguous slice: iteration
// runs at memory speed and in a fixed order, lookup is a binary
// search, and an insert or delete is one copy of the tail.
type adjRow []dagEdge

// find returns the position of to in r, or where it would be inserted.
func (r adjRow) find(to int32) (int, bool) {
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(r) && r[lo].to == to
}

// add raises the count of the entry for to by cnt, inserting the entry
// if it is absent, and returns the row and the entry's new count.
func (r adjRow) add(to, cnt int32) (adjRow, int32) {
	i, ok := r.find(to)
	if ok {
		r[i].cnt += cnt
		return r, r[i].cnt
	}
	return slices.Insert(r, i, dagEdge{to, cnt}), cnt
}

// dec lowers the count of the entry for to by one, deletes the entry
// when the count reaches zero, and returns the row and what is left of
// the count. The entry must exist: every caller retires an original
// edge that was counted into it.
func (r adjRow) dec(to int32) (adjRow, int32) {
	i, ok := r.find(to)
	if !ok {
		panic("incr: DAG edge refcount underflow")
	}
	r[i].cnt--
	if left := r[i].cnt; left > 0 {
		return r, left
	}
	return slices.Delete(r, i, i+1), 0
}

// remove deletes the entry for to, if there is one.
func (r adjRow) remove(to int32) adjRow {
	if i, ok := r.find(to); ok {
		return slices.Delete(r, i, i+1)
	}
	return r
}

// removeAll deletes the entries for every id in ids that has one: one
// binary search per id, then one pass that closes the gaps, which moves
// only the entries after the first one removed.
func (r adjRow) removeAll(ids []int32) adjRow {
	var at []int
	for _, id := range ids {
		if i, ok := r.find(id); ok {
			at = append(at, i)
		}
	}
	if len(at) == 0 {
		return r
	}
	slices.Sort(at)
	w := at[0]
	for k, i := range at {
		next := len(r)
		if k+1 < len(at) {
			next = at[k+1]
		}
		w += copy(r[w:], r[i+1:next])
	}
	return r[:w]
}

// addDAGEdgeCount adds cnt to the refcount of DAG edge (cu, cv) — the
// number of original edges collapsing onto it — and returns the new
// count.
func (x *Index) addDAGEdgeCount(cu, cv, cnt int32) (total int32) {
	x.outC[cu], total = x.outC[cu].add(cv, cnt)
	x.inC[cv], _ = x.inC[cv].add(cu, cnt)
	x.countEdge(cu, cv, true)
	return total
}

// addDAGEdge counts one more original edge onto DAG edge (cu, cv).
func (x *Index) addDAGEdge(cu, cv int32) int32 { return x.addDAGEdgeCount(cu, cv, 1) }

// decDAGEdge removes one refcount from the DAG edge cu→cv, deleting
// the edge when it reaches zero, and returns the remaining count.
func (x *Index) decDAGEdge(cu, cv int32) (left int32) {
	x.outC[cu], left = x.outC[cu].dec(cv)
	x.inC[cv], _ = x.inC[cv].dec(cu)
	if left == 0 {
		x.countEdge(cu, cv, false)
	}
	return left
}

// buildAdjacency derives outC and inC from a fresh condensation by
// counting, with no sort and no per-edge search: dag's rows are already
// deduplicated and ascending, so each out-row is laid out from them and
// the original edges leaving the component are counted into it through
// a position table; the in-rows are the transpose, filled by walking
// the out-rows in ascending tail order, which leaves them ascending too.
// All rows are cut from two backing arrays with their capacity clipped,
// so a later insert reallocates that row and cannot run into its
// neighbour.
func (x *Index) buildAdjacency(dag *graph.Graph, comp []int32) {
	nc := dag.NumVertices()
	x.outC = make([]adjRow, nc)
	x.inC = make([]adjRow, nc)
	outBack := make([]dagEdge, dag.NumEdges())
	inBack := make([]dagEdge, dag.NumEdges())
	slot := make([]int32, nc) // slot[d]: d's position in the row being counted
	for c, off := 0, 0; c < nc; c++ {
		succ := dag.Out(c)
		if len(succ) == 0 {
			continue
		}
		row := outBack[off : off+len(succ) : off+len(succ)]
		off += len(succ)
		for i, d := range succ {
			row[i].to = d
			slot[d] = int32(i)
		}
		for _, u := range x.members[c] {
			for _, v := range x.out[u] {
				if cv := comp[v]; cv != int32(c) {
					row[slot[cv]].cnt++
				}
			}
		}
		x.outC[c] = row
	}
	for d, off := 0, 0; d < nc; d++ {
		if deg := dag.InDegree(d); deg > 0 {
			x.inC[d] = inBack[off : off : off+deg]
			off += deg
		}
	}
	for c, row := range x.outC {
		for _, e := range row {
			x.inC[e.to] = append(x.inC[e.to], dagEdge{int32(c), e.cnt})
		}
	}
}

// flagSet is epoch-stamped scratch over dense ids (vertices or
// components): a few flag bits per id that all read as zero again after
// begin, without clearing or reallocating. A word holds epoch<<8|flags
// and counts only while its epoch is the current one.
type flagSet struct {
	word  []uint64
	epoch uint64 // only grows: a rewind would resurrect stale marks
}

// begin starts a fresh, empty set over ids in [0, n).
func (f *flagSet) begin(n int) {
	if len(f.word) < n {
		f.word = append(f.word, make([]uint64, n-len(f.word))...)
	}
	f.epoch++
}

func (f *flagSet) get(i int32) uint8 {
	if w := f.word[i]; w>>8 == f.epoch {
		return uint8(w)
	}
	return 0
}

func (f *flagSet) has(i int32, bit uint8) bool { return f.get(i)&bit != 0 }

// set raises bit on i, keeping i's other flags.
func (f *flagSet) set(i int32, bit uint8) {
	f.word[i] = f.epoch<<8 | uint64(f.get(i)|bit)
}

// add raises bit on i and reports whether it was clear before.
func (f *flagSet) add(i int32, bit uint8) bool {
	old := f.get(i)
	f.word[i] = f.epoch<<8 | uint64(old|bit)
	return old&bit == 0
}
