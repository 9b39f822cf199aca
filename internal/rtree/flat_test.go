package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/trace"
)

// TestFlattenRoundTrip checks BulkLoad → Raw/Meta → NewFlat → queries:
// the tree rebuilt from the arrays — what a loaded or mapped index runs
// on — must answer every operation like the built one, with the same
// trace counters, and both must agree with the brute-force scan.
func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000} {
		entries := randomRectEntries(rng, n)
		built := BulkLoad(append([]Entry[geom.Rect](nil), entries...), 16, 0)
		nb, nm, eb, ids := built.Raw()
		rebuilt, err := NewFlat[geom.Rect](built.Meta(), nb, nm, eb, ids)
		if err != nil {
			t.Fatalf("n=%d: NewFlat: %v", n, err)
		}
		if rebuilt.Len() != n || rebuilt.Height() != built.Height() || rebuilt.MemoryBytes() != built.MemoryBytes() {
			t.Fatalf("n=%d: len/height/bytes %d/%d/%d, want %d/%d/%d", n,
				rebuilt.Len(), rebuilt.Height(), rebuilt.MemoryBytes(), n, built.Height(), built.MemoryBytes())
		}
		if err := rebuilt.Validate(); err != nil {
			t.Fatalf("n=%d: Validate: %v", n, err)
		}
		rb, rok := rebuilt.Bounds()
		bb, bok := built.Bounds()
		if rok != bok || rb != bb {
			t.Fatalf("n=%d: Bounds %v/%v, want %v/%v", n, rb, rok, bb, bok)
		}
		var all []int32
		rebuilt.All(func(e Entry[geom.Rect]) bool { all = append(all, e.ID); return true })
		if len(all) != n {
			t.Fatalf("n=%d: All visited %d entries", n, len(all))
		}
		for q := 0; q < 50; q++ {
			query := randomRect(rng)
			want := bruteSearch(entries, query)
			if got := treeSearch(rebuilt, query); !equalIDs(got, want) {
				t.Fatalf("n=%d query %v: rebuilt %v, brute force %v", n, query, got, want)
			}
			if got := rebuilt.Count(query); got != len(want) {
				t.Fatalf("n=%d query %v: Count %d, want %d", n, query, got, len(want))
			}
			if _, ok := rebuilt.SearchAny(query); ok != (len(want) > 0) {
				t.Fatalf("n=%d query %v: SearchAny %v with %d matches", n, query, ok, len(want))
			}
			var rs, bs trace.Span
			rebuilt.SearchTraced(query, &rs, func(Entry[geom.Rect]) bool { return true })
			built.SearchTraced(query, &bs, func(Entry[geom.Rect]) bool { return true })
			if rs.Counters != bs.Counters {
				t.Fatalf("n=%d query %v: trace counters %+v, want %+v", n, query, rs.Counters, bs.Counters)
			}
			// The 2D instantiation of the predicate search: the bounds
			// handed out in place must be the bounds stored.
			meets := func(b *geom.Rect) bool { return b.Intersects(query) }
			var rw, bw trace.Span
			if got, same := rebuilt.SearchAnyWhere(&rw, meets), built.SearchAnyWhere(&bw, meets); got != (len(want) > 0) || same != got || rw.Counters != bw.Counters {
				t.Fatalf("n=%d query %v: SearchAnyWhere %v with %+v and %v with %+v, %d matches", n, query, got, rw.Counters, same, bw.Counters, len(want))
			}
		}
	}
}

// TestNewFlatRejectsCorruption feeds NewFlat systematically damaged
// arrays; each must produce an error, never a panic or an accepted
// inconsistent tree.
func TestNewFlatRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := BulkLoad(randomRectEntries(rng, 300), 16, 0)

	check := func(name string, mutate func(meta *FlatMeta, nodeMeta []uint32)) {
		t.Run(name, func(t *testing.T) {
			meta := base.Meta()
			nb, nm, eb, ids := base.Raw()
			nm = append([]uint32(nil), nm...)
			mutate(&meta, nm)
			if _, err := NewFlat[geom.Rect](meta, nb, nm, eb, ids); err == nil {
				t.Fatal("corrupted arrays accepted")
			}
		})
	}

	check("size-mismatch", func(m *FlatMeta, _ []uint32) { m.Size++ })
	check("height-mismatch", func(m *FlatMeta, _ []uint32) { m.Height++ })
	check("fanout-too-small", func(m *FlatMeta, _ []uint32) { m.MaxEntries = 2 })
	check("fanout-huge", func(m *FlatMeta, _ []uint32) { m.MaxEntries = 1 << 24 })
	check("root-first-nonzero", func(_ *FlatMeta, nm []uint32) { nm[0]++ })
	check("leaf-bit-flip", func(_ *FlatMeta, nm []uint32) { nm[1] ^= 1 })
	check("count-zero", func(_ *FlatMeta, nm []uint32) {
		// Zero out a non-root node's count, breaking the ≥1 rule.
		nm[3] &^= ^uint32(1)
	})
	check("count-overflow", func(m *FlatMeta, nm []uint32) {
		nm[1] = (uint32(m.MaxEntries+1) << 1) | (nm[1] & 1)
	})
	check("run-out-of-order", func(_ *FlatMeta, nm []uint32) {
		// Shift a child run start so runs no longer tile the arrays.
		nm[2]++
	})

	t.Run("length-mismatch", func(t *testing.T) {
		meta := base.Meta()
		nb, nm, eb, ids := base.Raw()
		if _, err := NewFlat[geom.Rect](meta, nb[:len(nb)-2], nm, eb, ids); err == nil {
			t.Fatal("short nodeBounds accepted")
		}
		if _, err := NewFlat[geom.Rect](meta, nb, nm, eb, ids[:len(ids)-1]); err == nil {
			t.Fatal("short entryIDs accepted")
		}
		if _, err := NewFlat[geom.Rect](meta, nb, nm[:len(nm)-1], eb, ids); err == nil {
			t.Fatal("odd nodeMeta accepted")
		}
	})

	t.Run("empty", func(t *testing.T) {
		empty := BulkLoad[geom.Rect](nil, 16, 0)
		nb, nm, eb, ids := empty.Raw()
		f, err := NewFlat[geom.Rect](empty.Meta(), nb, nm, eb, ids)
		if err != nil {
			t.Fatalf("empty flat tree rejected: %v", err)
		}
		if f.Len() != 0 {
			t.Fatalf("empty flat tree has Len %d", f.Len())
		}
		if _, ok := f.Bounds(); ok {
			t.Fatal("empty flat tree reported bounds")
		}
	})

	// A chain of one-child nodes is balanced and tiles the arrays, so
	// only the height bound stands between it and a recursion as deep
	// as the file is long.
	t.Run("chain", func(t *testing.T) {
		chain := func(height int) error {
			nb := make([]float64, 4*height)
			nm := make([]uint32, 0, 2*height)
			for i := 1; i < height; i++ {
				nm = append(nm, uint32(i), 1<<1)
			}
			nm = append(nm, 0, 1<<1|1)
			_, err := NewFlat[geom.Rect](FlatMeta{MaxEntries: 16, Height: height, Size: 1}, nb, nm, make([]float64, 4), []int32{7})
			return err
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
// loader share: whatever BulkLoad is asked for, NewFlat takes back.
func TestBulkLoadClampsFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range []struct{ ask, want int }{
		{-3, DefaultMaxEntries}, {0, DefaultMaxEntries}, {1, minFanout}, {3, minFanout},
		{minFanout, minFanout}, {maxFanout, maxFanout}, {maxFanout + 1, maxFanout}, {1 << 21, maxFanout},
	} {
		f := BulkLoad(randomRectEntries(rng, 100), c.ask, 0)
		if got := f.Meta().MaxEntries; got != c.want {
			t.Errorf("fan-out %d built as %d, want %d", c.ask, got, c.want)
		}
		nb, nm, eb, ids := f.Raw()
		if _, err := NewFlat[geom.Rect](f.Meta(), nb, nm, eb, ids); err != nil {
			t.Errorf("fan-out %d: built tree does not load: %v", c.ask, err)
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
	nb, nm, eb, ids := built.Raw()
	rebuilt, err := NewFlat[geom.Box3](built.Meta(), nb, nm, eb, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Validate(); err != nil {
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
		if got := rebuilt.Count(query); got != want {
			t.Fatalf("query %d: Count %d, want %d", q, got, want)
		}
	}
}
