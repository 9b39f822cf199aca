package labeling

import (
	"fmt"

	"repro/internal/intervals"
)

// FlatColumns returns the four columns a flat index image holds, which
// are the labeling's own storage, not copies: post, order (order[p-1]
// has post p; it is persisted so a mapped load need not invert post),
// offsets (NumVertices()+1 entries) and data, all intervals in vertex
// order, L(v) being data[offsets[v]:offsets[v+1]].
func (l *Labeling) FlatColumns() (post, order []int32, offsets []uint64, data intervals.Set) {
	return l.Post, l.Order, l.off, l.data
}

// maxVertices caps the vertex count a file may claim.
const maxVertices = 1 << 30

// FromFlat assembles a labeling from persisted flat columns. It is the
// one place outside input is checked, whether the columns were decoded
// or mapped: post must be a bijection onto [1,n] consistent with order, offsets must
// tile data monotonically, and every label set must pass validSet. The
// labeling holds the four columns themselves and allocates nothing per
// vertex, so they must stay alive (and unmodified) as long as it does.
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
	// order[post[v]-1] == v for every v makes post injective, so a
	// bijection onto [1,n]: no marks are needed to find a repeat.
	for v, p := range post {
		if p < 1 || p > int32(n) {
			return nil, fmt.Errorf("labeling: corrupt post number %d for vertex %d", p, v)
		}
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
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if err := validSet(data[lo:hi], n); err != nil {
			return nil, err
		}
	}
	return &Labeling{
		Post:              post,
		Order:             order,
		off:               offsets,
		data:              data,
		UncompressedCount: uncompressed,
		CompressedCount:   compressed,
	}, nil
}

// validSet checks a label set read from outside the program: every
// interval lies in [1,n] with lo ≤ hi, and the intervals ascend without
// overlap. The queries binary-search a label (ContainsCanonical,
// FirstEndingAt), so an out-of-order set would answer wrongly
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
