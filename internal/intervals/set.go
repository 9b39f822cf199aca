// Package intervals implements the interval algebra behind the
// interval-based reachability labeling (paper §3): label intervals over
// post-order numbers, canonical compression (absorbing subsumed intervals
// and merging adjacent ones), stabbing tests, and an interval tree used to
// find label-based ancestors during Algorithm 1.
package intervals

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Interval is a closed interval [Lo, Hi] of post-order numbers.
// Post-order numbers are dense positive integers, so [1,3] and [4,5] are
// adjacent and compress to [1,5].
type Interval struct {
	Lo, Hi int32
}

// Contains reports whether p lies inside iv.
func (iv Interval) Contains(p int32) bool { return iv.Lo <= p && p <= iv.Hi }

// Len returns the number of integers covered by iv.
func (iv Interval) Len() int64 { return int64(iv.Hi) - int64(iv.Lo) + 1 }

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// Set is a label set L(v): a collection of intervals over post-order
// numbers. A Set in canonical form is sorted by Lo, pairwise disjoint and
// non-adjacent; Compress establishes canonical form.
type Set []Interval

// NewSet returns a set holding the single interval [lo, hi].
func NewSet(lo, hi int32) Set { return Set{{Lo: lo, Hi: hi}} }

// Singleton returns a set holding the degenerate interval [p, p], the
// initial label Algorithm 1 assigns to every vertex (line 6).
func Singleton(p int32) Set { return NewSet(p, p) }

// Contains reports whether any interval of s contains p. If s is in
// canonical form the test runs in O(log |s|); otherwise it degrades to a
// linear scan (callers during construction hold non-canonical sets).
func (s Set) Contains(p int32) bool {
	if len(s) <= 8 {
		for _, iv := range s {
			if iv.Contains(p) {
				return true
			}
		}
		return false
	}
	// Binary search assumes canonical form; fall back to scan when the
	// probe result is inconclusive because canonical form is not
	// guaranteed here. We detect sortedness lazily: canonical callers
	// dominate, so check the candidate first.
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi >= p })
	if i < len(s) && s[i].Contains(p) {
		return true
	}
	if s.isSorted() {
		return false
	}
	for _, iv := range s {
		if iv.Contains(p) {
			return true
		}
	}
	return false
}

// ContainsCanonical reports whether any interval of the canonical set s
// contains p, in O(log |s|). The caller must guarantee canonical form.
func (s Set) ContainsCanonical(p int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi >= p })
	return i < len(s) && s[i].Lo <= p
}

// FirstEndingAt returns the index of the first interval of the
// canonical set s that ends at p or later, len(s) if none does: the
// cursor step of a merge join of s with sorted keys. It is a plain
// binary search, so it inlines into the join loops.
func (s Set) FirstEndingAt(p int32) int {
	i, j := 0, len(s)
	for i < j {
		if m := int(uint(i+j) >> 1); s[m].Hi < p {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

func (s Set) isSorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i].Lo < s[i-1].Lo {
			return false
		}
	}
	return true
}

// Add appends the interval [lo, hi] without compressing.
func (s Set) Add(lo, hi int32) Set {
	return append(s, Interval{Lo: lo, Hi: hi})
}

// Union appends all intervals of other without compressing, mirroring the
// plain set-union steps of Algorithm 1 (lines 13, 15, 22, 24). Exact
// duplicates are skipped so that the "uncompressed" label counts of
// Table 6 follow set semantics.
func (s Set) Union(other Set) Set {
	for _, iv := range other {
		if !s.hasExact(iv) {
			s = append(s, iv)
		}
	}
	return s
}

func (s Set) hasExact(iv Interval) bool {
	for _, have := range s {
		if have == iv {
			return true
		}
	}
	return false
}

// Compress returns the canonical form of s: intervals sorted by Lo, with
// subsumed intervals absorbed and overlapping or adjacent intervals merged
// (paper §3.1: [3,5] absorbs [4,5]; [1,4] and [4,5] merge to [1,5]; over
// the dense integer domain [1,3] and [4,5] merge to [1,5] as well).
// Compress may reuse s's storage.
func (s Set) Compress() Set {
	if len(s) <= 1 {
		return s
	}
	slices.SortFunc(s, func(a, b Interval) int {
		if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
			return c
		}
		return cmp.Compare(b.Hi, a.Hi)
	})
	out := s[:1]
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		// Overlapping or adjacent integers; in int64, so that a run
		// ending at MaxInt32 still absorbs what follows it.
		if int64(iv.Lo) <= int64(last.Hi)+1 {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// IsCanonical reports whether s is sorted, disjoint and non-adjacent.
func (s Set) IsCanonical() bool {
	for i := 1; i < len(s); i++ {
		if int64(s[i].Lo) <= int64(s[i-1].Hi)+1 {
			return false
		}
	}
	for _, iv := range s {
		if iv.Lo > iv.Hi {
			return false
		}
	}
	return true
}

// Cardinality returns the total number of integers covered by the
// canonical set s.
func (s Set) Cardinality() int64 {
	var total int64
	for _, iv := range s {
		total += iv.Len()
	}
	return total
}

// Equal reports whether two canonical sets cover identical intervals.
func (s Set) Equal(other Set) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// MemoryBytes returns the storage footprint of s (8 bytes per interval),
// used by the index-size accounting of Table 4.
func (s Set) MemoryBytes() int64 { return int64(8 * len(s)) }

// String implements fmt.Stringer, printing e.g. "{[1,5] [7,7]}".
func (s Set) String() string {
	parts := make([]string, len(s))
	for i, iv := range s {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// CoversCanonical reports whether the canonical set s covers every
// integer of the canonical set other, in O(|s| + |other|) without
// allocating. The incremental labeling uses it to prune propagation.
func (s Set) CoversCanonical(other Set) bool {
	i := 0
	for _, need := range other {
		for i < len(s) && s[i].Hi < need.Lo {
			i++
		}
		if i >= len(s) || s[i].Lo > need.Lo || s[i].Hi < need.Hi {
			return false
		}
	}
	return true
}

// MergeCanonical merges two canonical sets into a new canonical set in
// O(|a| + |b|). It never aliases a or b.
func MergeCanonical(a, b Set) Set {
	if len(a) == 0 {
		return b.Clone()
	}
	if len(b) == 0 {
		return a.Clone()
	}
	out := make(Set, 0, len(a)+len(b))
	i, j := 0, 0
	pushMerged := func(iv Interval) {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if int64(iv.Lo) <= int64(last.Hi)+1 {
				if iv.Hi > last.Hi {
					last.Hi = iv.Hi
				}
				return
			}
		}
		out = append(out, iv)
	}
	for i < len(a) && j < len(b) {
		if a[i].Lo <= b[j].Lo {
			pushMerged(a[i])
			i++
		} else {
			pushMerged(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		pushMerged(a[i])
	}
	for ; j < len(b); j++ {
		pushMerged(b[j])
	}
	return out
}

// MergeManyCanonical merges any number of canonical sets into one new
// canonical set that aliases none of the inputs. Folding MergeCanonical
// over a long list re-scans the growing accumulator on every step,
// which is quadratic when one vertex has thousands of successors — the
// hot case in incremental relabeling — so all intervals are combined in
// one pass instead: by a coverage sweep when they are dense in the
// range they span, by one sort otherwise.
func MergeManyCanonical(sets []Set) Set {
	switch len(sets) {
	case 0:
		return nil
	case 1:
		return sets[0].Clone()
	case 2:
		return MergeCanonical(sets[0], sets[1])
	}
	total := 0
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, s := range sets {
		total += len(s)
		if len(s) > 0 {
			lo, hi = min(lo, s[0].Lo), max(hi, s[len(s)-1].Hi)
		}
	}
	if total == 0 {
		return nil
	}
	// The sweep costs a pass over the spanned range, the sort about a
	// dozen comparisons per interval: sweep while the range is within a
	// small multiple of the interval count (a giant component's tens of
	// thousands of singleton successors span barely more posts than
	// there are successors), and never for a handful of intervals, where
	// its scratch array is the larger cost.
	if span := int64(hi) - int64(lo) + 1; total >= sweepMinIntervals && span <= sweepMaxSpread*int64(total) {
		return mergeSweep(sets, lo, int(span))
	}
	return mergeSort(sets, total)
}

const (
	sweepMinIntervals = 64
	sweepMaxSpread    = 8
)

// mergeSweep is the dense branch of MergeManyCanonical: every interval
// adds +1 at its Lo and -1 past its Hi in a delta array over
// [lo, lo+span), and the runs of positive coverage are the result —
// overlapping and adjacent intervals fuse without any ordering step.
func mergeSweep(sets []Set, lo int32, span int) Set {
	delta := make([]int32, span+1)
	for _, s := range sets {
		for _, iv := range s {
			delta[int64(iv.Lo)-int64(lo)]++
			delta[int64(iv.Hi)-int64(lo)+1]--
		}
	}
	var out Set
	cover, start := int32(0), 0
	for i, d := range delta {
		if d == 0 {
			continue
		}
		if cover == 0 {
			start = i
		}
		if cover += d; cover == 0 {
			out = append(out, Interval{Lo: int32(int64(lo) + int64(start)), Hi: int32(int64(lo) + int64(i) - 1)})
		}
	}
	return out
}

// mergeSort is the sparse branch of MergeManyCanonical: collect all
// total intervals, sort once, fuse in order — O(total log total).
func mergeSort(sets []Set, total int) Set {
	// Pack each interval into one uint64 ordered by (Lo, Hi) — flipping
	// the sign bits preserves int32 order under unsigned comparison —
	// so the hot sort runs without a comparator callback.
	keys := make([]uint64, 0, total)
	for _, s := range sets {
		for _, iv := range s {
			keys = append(keys, uint64(uint32(iv.Lo)^1<<31)<<32|uint64(uint32(iv.Hi)^1<<31))
		}
	}
	slices.Sort(keys)
	out := make(Set, 0, total)
	for _, key := range keys {
		iv := Interval{
			Lo: int32(uint32(key>>32) ^ 1<<31),
			Hi: int32(uint32(key) ^ 1<<31),
		}
		if n := len(out); n > 0 && int64(iv.Lo) <= int64(out[n-1].Hi)+1 {
			if iv.Hi > out[n-1].Hi {
				out[n-1].Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return slices.Clip(out)
}
