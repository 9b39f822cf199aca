package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestNewFlatRejectsCorruption damages the arrays and shape scalars of
// a newly built flat tree in place, one structural property at a time;
// Validate must name each, never panic or pass an inconsistent tree.
func TestNewFlatRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	entries := randomRectEntries(rng, 300)
	build := func() *Flat[geom.Rect] { return BulkLoad(append([]Entry[geom.Rect](nil), entries...), 16, 0) }

	check := func(name string, mutate func(f *Flat[geom.Rect])) {
		t.Run(name, func(t *testing.T) {
			f := build()
			mutate(f)
			if err := f.Validate(); err == nil {
				t.Fatal("corrupted arrays accepted")
			}
		})
	}

	check("size-mismatch", func(f *Flat[geom.Rect]) { f.size++ })
	check("height-mismatch", func(f *Flat[geom.Rect]) { f.height++ })
	check("fanout-too-small", func(f *Flat[geom.Rect]) { f.maxEntries = 2 })
	check("fanout-huge", func(f *Flat[geom.Rect]) { f.maxEntries = 1 << 24 })
	check("root-first-nonzero", func(f *Flat[geom.Rect]) { f.nodeMeta[0]++ })
	check("leaf-bit-flip", func(f *Flat[geom.Rect]) { f.nodeMeta[1] ^= 1 })
	check("count-zero", func(f *Flat[geom.Rect]) {
		// Zero out a non-root node's count, breaking the ≥1 rule.
		f.nodeMeta[3] &^= ^uint32(1)
	})
	check("count-overflow", func(f *Flat[geom.Rect]) {
		f.nodeMeta[1] = (uint32(f.maxEntries+1) << 1) | (f.nodeMeta[1] & 1)
	})
	check("run-out-of-order", func(f *Flat[geom.Rect]) {
		// Shift a child run start so runs no longer tile the arrays.
		f.nodeMeta[2]++
	})

	t.Run("length-mismatch", func(t *testing.T) {
		for name, mutate := range map[string]func(f *Flat[geom.Rect]){
			"short nodeBounds": func(f *Flat[geom.Rect]) { f.nodeBounds = f.nodeBounds[:len(f.nodeBounds)-2] },
			"short entryIDs":   func(f *Flat[geom.Rect]) { f.entryIDs = f.entryIDs[:len(f.entryIDs)-1] },
			"odd nodeMeta":     func(f *Flat[geom.Rect]) { f.nodeMeta = f.nodeMeta[:len(f.nodeMeta)-1] },
		} {
			f := build()
			mutate(f)
			if err := f.Validate(); err == nil {
				t.Fatalf("%s accepted", name)
			}
		}
	})

	t.Run("empty", func(t *testing.T) {
		f := BulkLoad[geom.Rect](nil, 16, 0)
		if err := f.Validate(); err != nil {
			t.Fatalf("empty flat tree rejected: %v", err)
		}
		if f.Len() != 0 {
			t.Fatalf("empty flat tree has Len %d", f.Len())
		}
		if len(f.nodeMeta) != 0 {
			t.Fatal("empty flat tree has a root")
		}
	})

	// A chain of one-child nodes is balanced and tiles the arrays, so
	// only the height bound stands between it and a tree as deep as its
	// arrays are long.
	t.Run("chain", func(t *testing.T) {
		chain := func(height int) error {
			nb := make([]float64, 4*height)
			nm := make([]uint32, 0, 2*height)
			for i := 1; i < height; i++ {
				nm = append(nm, uint32(i), 1<<1)
			}
			nm = append(nm, 0, 1<<1|1)
			f := &Flat[geom.Rect]{dims: 2, maxEntries: 16, height: height, size: 1,
				nodeBounds: nb, nodeMeta: nm, entryBounds: make([]float64, 4), entryIDs: []int32{7}}
			return f.Validate()
		}
		if err := chain(maxHeight); err != nil {
			t.Fatalf("chain of %d levels rejected: %v", maxHeight, err)
		}
		if chain(maxHeight+1) == nil {
			t.Fatalf("chain of %d levels accepted", maxHeight+1)
		}
	})
}

// TestBulkLoadClampsFanout pins the one fan-out range builder and
// validator share: whatever BulkLoad is asked for, it builds a tree
// Validate accepts.
func TestBulkLoadClampsFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range []struct{ ask, want int }{
		{-3, DefaultMaxEntries}, {0, DefaultMaxEntries}, {1, minFanout}, {3, minFanout},
		{minFanout, minFanout}, {maxFanout, maxFanout}, {maxFanout + 1, maxFanout}, {1 << 21, maxFanout},
	} {
		f := BulkLoad(randomRectEntries(rng, 100), c.ask, 0)
		if f.maxEntries != c.want {
			t.Errorf("fan-out %d built as %d, want %d", c.ask, f.maxEntries, c.want)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("fan-out %d: built tree does not validate: %v", c.ask, err)
		}
	}
}

// TestFlatMemoryBytes sanity-checks the footprint accounting: nonzero,
// and growing with the entry count.
func TestFlatMemoryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	small := BulkLoad(randomRectEntries(rng, 50), 16, 0)
	big := BulkLoad(randomRectEntries(rng, 5000), 16, 0)
	if small.MemoryBytes() <= 0 || big.MemoryBytes() <= small.MemoryBytes() {
		t.Fatalf("MemoryBytes small=%d big=%d", small.MemoryBytes(), big.MemoryBytes())
	}
}

// TestFlattenBox3 exercises the 3D instantiation end to end.
func TestFlattenBox3(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entries := make([]Entry[geom.Box3], 500)
	for i := range entries {
		x, y, z := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
		entries[i] = Entry[geom.Box3]{Box: geom.NewBox3(x, y, z, x+1, y+1, z+1), ID: int32(i)}
	}
	built := BulkLoad(append([]Entry[geom.Box3](nil), entries...), 16, 0)
	if err := built.Validate(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		x, y, z := rng.Float64()*90, rng.Float64()*90, rng.Float64()*90
		query := geom.NewBox3(x, y, z, x+10, y+10, z+10)
		want := 0
		for _, e := range entries {
			if e.Box.Intersects(query) {
				want++
			}
		}
		if got := count(built, query); got != want {
			t.Fatalf("query %d: Count %d, want %d", q, got, want)
		}
	}
}
