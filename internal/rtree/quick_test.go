package rtree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// rectSpec decodes quick-generated bytes into entries and queries.
type rectSpec struct {
	Raw []uint32
}

func (s rectSpec) entries() []Entry[geom.Rect] {
	var out []Entry[geom.Rect]
	for i, r := range s.Raw {
		x := float64(r&0xff) / 2
		y := float64((r>>8)&0xff) / 2
		w := float64((r >> 16) & 0x0f)
		h := float64((r >> 20) & 0x0f)
		out = append(out, Entry[geom.Rect]{
			Box: geom.NewRect(x, y, x+w, y+h),
			ID:  int32(i),
		})
	}
	return out
}

// TestQuickSearchEqualsBruteForce is the central R-tree property: the
// tree returns exactly the brute-force result set.
func TestQuickSearchEqualsBruteForce(t *testing.T) {
	f := func(s rectSpec, q rectSpec) bool {
		entries := s.entries()
		tr := BulkLoad(append([]Entry[geom.Rect](nil), entries...), 5, 0)
		if tr.Validate() != nil {
			return false
		}
		for _, qe := range q.entries() {
			want := map[int32]bool{}
			for _, e := range entries {
				if e.Box.Intersects(qe.Box) {
					want[e.ID] = true
				}
			}
			got := map[int32]bool{}
			tr.Search(qe.Box, func(e Entry[geom.Rect]) bool {
				got[e.ID] = true
				return true
			})
			if len(got) != len(want) {
				return false
			}
			for id := range want {
				if !got[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickBoundsCoverEverything: the root bounds contain every entry.
func TestQuickBoundsCoverEverything(t *testing.T) {
	f := func(s rectSpec) bool {
		entries := s.entries()
		if len(entries) == 0 {
			return true
		}
		tr := BulkLoad(entries, 6, 0)
		if len(tr.nodeMeta) == 0 {
			return false
		}
		bounds := *tr.boundRef(0)
		for j := range tr.size {
			if !bounds.ContainsRect(*tr.entryRef(uint32(j))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectsEqualsBound: the kernels' comparison over
// coordinate arrays is Box3.Intersects, touching faces, inverted boxes
// and NaN included.
func TestQuickIntersectsEqualsBound(t *testing.T) {
	f := func(ac, qc [6]int8, nan uint8) bool {
		var a, q [6]float64
		for i := range a {
			a[i], q[i] = float64(ac[i]%4), float64(qc[i]%4)
		}
		if nan < 12 {
			if nan < 6 {
				a[nan] = math.NaN()
			} else {
				q[nan-6] = math.NaN()
			}
		}
		box := func(c [6]float64) geom.Box3 {
			return geom.Box3{Min: geom.Pt3(c[0], c[1], c[2]), Max: geom.Pt3(c[3], c[4], c[5])}
		}
		padded := append([]float64{9, 9}, a[:]...)
		return intersects(padded, 2, q[:]) == box(a).Intersects(box(q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
