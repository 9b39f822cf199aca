package rtree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/pool"
)

// sameArrays reports whether two trees are the same tree: equal shape
// scalars and equal arrays, not just equal query answers.
func sameArrays[B Bound[B]](a, b *Flat[B]) bool {
	an, am, ae, ai := a.Raw()
	bn, bm, be, bi := b.Raw()
	return a.Meta() == b.Meta() && slices.Equal(an, bn) && slices.Equal(am, bm) &&
		slices.Equal(ae, be) && slices.Equal(ai, bi)
}

// TestBulkLoadPoolIdentical asserts that parallel STR packing produces
// the same arrays as the sequential bulk load, for 2D rects and 3D boxes
// across fan-outs and sizes.
func TestBulkLoadPoolIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{0, 1, 15, 16, 17, 300, 2000} {
		for _, fanout := range []int{4, 8, 16} {
			entries := randomRectEntries(rng, n)
			seq := BulkLoad(append([]Entry[geom.Rect](nil), entries...), fanout, 0)
			for _, par := range []int{2, 8} {
				got := BulkLoadPool(append([]Entry[geom.Rect](nil), entries...), fanout, 0, pool.New(par))
				if err := got.Validate(); err != nil {
					t.Fatalf("n=%d fanout=%d par=%d: %v", n, fanout, par, err)
				}
				if !sameArrays(got, seq) {
					t.Fatalf("n=%d fanout=%d par=%d: parallel tree differs from sequential", n, fanout, par)
				}
			}
		}
	}
}

func TestBulkLoadPoolIdenticalBox3(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	entries := make([]Entry[geom.Box3], 1500)
	for i := range entries {
		p := geom.Pt3(rng.Float64()*100, rng.Float64()*100, float64(rng.Intn(1000)))
		entries[i] = Entry[geom.Box3]{Box: geom.Box3FromPoint(p), ID: int32(i)}
	}
	seq := BulkLoad(append([]Entry[geom.Box3](nil), entries...), 8, 24)
	for _, par := range []int{2, 8} {
		got := BulkLoadPool(append([]Entry[geom.Box3](nil), entries...), 8, 24, pool.New(par))
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !sameArrays(got, seq) {
			t.Fatalf("par=%d: parallel 3D tree differs from sequential", par)
		}
	}
}
