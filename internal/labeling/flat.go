package labeling

import (
	"fmt"

	"repro/internal/intervals"
)

// Flat form: the labeling as four structure-of-arrays columns that
// overlay a flat index image with no per-vertex allocation.
//
//	post    [n]i32      — 1-based post-order numbers
//	order   [n]i32      — inverse permutation: order[p-1] has post p
//	offsets [n+1]u64    — label set v is data[offsets[v]:offsets[v+1]]
//	data    [Σ|L(v)|]Interval — all intervals, concatenated by vertex
//
// order is persisted rather than recomputed so a mapped load allocates
// nothing per vertex; FromFlat still cross-checks it against post.

// FlatColumns returns the labeling as flat columns. offsets has
// NumVertices()+1 entries; the returned slices alias internal storage
// when the labeling itself was loaded from flat columns.
func (l *Labeling) FlatColumns() (post, order []int32, offsets []uint64, data intervals.Set) {
	offsets = make([]uint64, len(l.Labels)+1)
	total := 0
	for v, set := range l.Labels {
		offsets[v] = uint64(total)
		total += len(set)
	}
	offsets[len(l.Labels)] = uint64(total)
	data = make(intervals.Set, 0, total)
	for _, set := range l.Labels {
		data = append(data, set...)
	}
	return l.Post, l.Order, offsets, data
}

// maxVertices caps the vertex count a file may claim.
const maxVertices = 1 << 30

// FromFlat assembles a labeling from persisted flat columns. It is the
// one place outside input is checked, whichever codec decoded it: post
// must be a bijection onto [1,n] consistent with order, offsets must
// tile data monotonically, and every label set must pass validSet. The
// label sets are subslices of data — one allocation for the whole
// Labels spine, zero per vertex — so data must stay alive (and
// unmodified) as long as the labeling does.
func FromFlat(post, order []int32, offsets []uint64, data intervals.Set, uncompressed, compressed int64) (*Labeling, error) {
	n := len(post)
	if n > maxVertices {
		return nil, fmt.Errorf("labeling: implausible vertex count %d", n)
	}
	if len(order) != n {
		return nil, fmt.Errorf("labeling: %d order entries for %d vertices", len(order), n)
	}
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("labeling: %d offsets for %d vertices", len(offsets), n)
	}
	seen := make([]bool, n)
	for v, p := range post {
		if p < 1 || p > int32(n) || seen[p-1] {
			return nil, fmt.Errorf("labeling: corrupt post number %d for vertex %d", p, v)
		}
		seen[p-1] = true
		if order[p-1] != int32(v) {
			return nil, fmt.Errorf("labeling: order[%d] = %d, post says %d", p-1, order[p-1], v)
		}
	}
	if n > 0 && offsets[0] != 0 {
		return nil, fmt.Errorf("labeling: offsets start at %d, not 0", offsets[0])
	}
	if len(offsets) > 0 && offsets[n] != uint64(len(data)) {
		return nil, fmt.Errorf("labeling: offsets end at %d, data holds %d intervals", offsets[n], len(data))
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("labeling: offsets not monotonic at vertex %d", v)
		}
		if offsets[v+1]-offsets[v] > uint64(n) {
			return nil, fmt.Errorf("labeling: implausible label count %d", offsets[v+1]-offsets[v])
		}
	}
	l := &Labeling{
		Post:              post,
		Order:             order,
		Labels:            make([]intervals.Set, n),
		UncompressedCount: uncompressed,
		CompressedCount:   compressed,
	}
	for v := 0; v < n; v++ {
		if lo, hi := offsets[v], offsets[v+1]; lo < hi {
			l.Labels[v] = data[lo:hi:hi]
			if err := validSet(l.Labels[v], n); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

// validSet checks a label set read from outside the program: every
// interval lies in [1,n] with lo ≤ hi, and the intervals ascend without
// overlap. The queries binary-search a label (ContainsCanonical,
// OverlapsCanonical), so an out-of-order set would answer wrongly
// rather than fail. Adjacent intervals left unmerged stay legal, as in
// check.Set: the compression ablation writes them.
func validSet(s intervals.Set, n int) error {
	for i, iv := range s {
		if iv.Lo < 1 || iv.Hi > int32(n) || iv.Lo > iv.Hi {
			return fmt.Errorf("labeling: corrupt interval %v", iv)
		}
		if i > 0 && iv.Lo <= s[i-1].Hi {
			return fmt.Errorf("labeling: intervals %v and %v overlap or are out of order", s[i-1], iv)
		}
	}
	return nil
}
