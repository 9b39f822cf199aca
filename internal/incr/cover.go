package incr

import (
	"math/bits"

	"repro/internal/intervals"
)

// cover keeps the label of one component, the counted one, as a coverage
// count over posts instead of re-deriving it from its successors. On a
// social network that component is the giant: it checks into nearly
// every venue, and re-deriving its label reads one successor label per
// venue and merges them all. The count is a difference array: the
// component's own post and every interval of every current DAG
// successor's stored label add +1 at Lo and −1 past Hi. It changes only
// when a successor's label is replaced (setLabel) or the component gains
// or loses a successor (the row mutators), each at the cost of the
// intervals involved, and a relabel of the component is one sweep over
// the post range: the runs of positive coverage are exactly
// MergeManyCanonical({post} ∪ successors' labels), whose canonical form
// is unique.
//
// At most one component is counted — the widest out-row, if it holds at
// least max(coverMinRow, maxPost/8) successors — so the array costs at
// most 32 B per successor edge. The rule is applied at every (re)build
// and when a merge absorbs the counted component, whose survivor then
// recounts if its row qualifies. Like cmark and vmark, the count is
// writer scratch: snapshots never see it and MemoryBytes does not count
// it.
type cover struct {
	c     int32    // the counted component, or -1
	delta []int32  // per post p in [0, maxPost+1]: coverage starting at p less coverage ending at p−1
	nz    []uint64 // bit p: delta[p] may be non-zero; set by add, cleared by the sweep that finds it zero
	succ  []bool   // per component: a DAG successor of c, so that its label is in delta
	// swept counts the bitmap words and entries label has visited; the
	// cost guard on relabeling the giant reads it.
	swept int
}

// coverMinRow is the floor of the counting rule: rows shorter than this
// merge faster than a sweep over the post range.
const coverMinRow = 1024

// coverThreshold is the out-row length from which a component is
// counted.
func (x *Index) coverThreshold() int {
	if x.opts.coverMin > 0 {
		return x.opts.coverMin
	}
	return max(coverMinRow, int(x.maxPost)/8)
}

// countWidest applies the counting rule from scratch: the widest out-row
// (the lowest id among equals) is counted if it is wide enough.
func (x *Index) countWidest() {
	widest := int32(-1)
	for c, row := range x.outC {
		if x.alive[c] && (widest < 0 || len(row) > len(x.outC[widest])) {
			widest = int32(c)
		}
	}
	x.cov.c = -1
	if widest >= 0 {
		x.countIfWide(widest)
	}
}

// countIfWide starts counting c if its out-row meets the threshold, and
// otherwise leaves the count off and releases it.
func (x *Index) countIfWide(c int32) {
	v := &x.cov
	if len(x.outC[c]) < x.coverThreshold() {
		v.c, v.delta, v.nz, v.succ = -1, nil, nil, nil
		return
	}
	v.c = c
	v.delta, v.nz = make([]int32, x.maxPost+2), make([]uint64, (x.maxPost+2+63)/64)
	v.succ = make([]bool, len(x.alive))
	v.add(intervals.Singleton(x.post.at(c)), 1)
	for _, e := range x.outC[c] {
		v.succ[e.to] = true
		v.add(x.labels.at(e.to), 1)
	}
	// Mark only the entries that ended non-zero, so that the first sweep
	// does not pay for every successor's cancelled bounds.
	clear(v.nz)
	for p, d := range v.delta {
		if d != 0 {
			v.nz[p>>6] |= 1 << (p & 63)
		}
	}
}

// add enters every interval of s into the count with the given sign.
func (v *cover) add(s intervals.Set, sign int32) {
	for _, iv := range s {
		v.bump(iv.Lo, sign)
		v.bump(iv.Hi+1, -sign)
	}
}

func (v *cover) bump(p, d int32) {
	v.delta[p] += d
	v.nz[p>>6] |= 1 << (p & 63)
}

// grow makes room for a fresh component and its post.
func (v *cover) grow() {
	if v.c >= 0 {
		v.delta = append(v.delta, 0)
		if len(v.delta) > 64*len(v.nz) {
			v.nz = append(v.nz, 0)
		}
		v.succ = append(v.succ, false)
	}
}

// countEdge enters d into (on) or retires it from the counted label when
// the DAG edge cu→d appears or disappears; it does nothing unless cu is
// the counted component.
func (x *Index) countEdge(cu, d int32, on bool) {
	v := &x.cov
	if cu != v.c || v.succ[d] == on {
		return
	}
	v.succ[d] = on
	sign := int32(1)
	if !on {
		sign = -1
	}
	v.add(x.labels.at(d), sign)
}

// label sweeps the count into the canonical label it represents,
// visiting each bitmap word and each entry whose bit is set.
func (v *cover) label() intervals.Set {
	var out intervals.Set
	cnt, start := int32(0), int32(0)
	for k, w := range v.nz {
		v.swept++
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			p := int32(k<<6 | b)
			v.swept++
			d := v.delta[p]
			if d == 0 {
				v.nz[k] &^= 1 << b
				continue
			}
			if cnt == 0 {
				start = p
			}
			if cnt += d; cnt == 0 {
				out = append(out, intervals.Interval{Lo: start, Hi: p - 1})
			}
		}
	}
	return out
}
