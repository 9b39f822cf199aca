package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/trace"
)

// Both implementations must keep satisfying the shared query interface
// the engines are typed against.
var (
	_ Searcher[geom.Rect] = (*Tree[geom.Rect])(nil)
	_ Searcher[geom.Rect] = (*Flat[geom.Rect])(nil)
	_ Searcher[geom.Box3] = (*Tree[geom.Box3])(nil)
	_ Searcher[geom.Box3] = (*Flat[geom.Box3])(nil)
)

func flatSearch(f *Flat[geom.Rect], q geom.Rect) []int32 {
	var ids []int32
	f.Search(q, func(e Entry[geom.Rect]) bool {
		ids = append(ids, e.ID)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestFlattenRoundTrip checks Flatten → Raw/Meta → NewFlat → queries:
// the rebuilt flat tree must answer every operation exactly like the
// pointer tree it came from, including the trace counters — the flat
// traversal must visit the same nodes in the same order.
func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000} {
		entries := randomRectEntries(rng, n)
		tree := BulkLoad(append([]Entry[geom.Rect](nil), entries...), 16)
		flat := Flatten(tree)
		if flat == nil {
			t.Fatalf("n=%d: Flatten returned nil", n)
		}
		nb, nm, eb, ids := flat.Raw()
		rebuilt, err := NewFlat[geom.Rect](flat.Meta(), nb, nm, eb, ids)
		if err != nil {
			t.Fatalf("n=%d: NewFlat: %v", n, err)
		}
		for _, f := range []*Flat[geom.Rect]{flat, rebuilt} {
			if f.Len() != tree.Len() || f.Height() != tree.Height() {
				t.Fatalf("n=%d: len/height %d/%d, want %d/%d", n, f.Len(), f.Height(), tree.Len(), tree.Height())
			}
			if err := f.Validate(); err != nil {
				t.Fatalf("n=%d: Validate: %v", n, err)
			}
			fb, fok := f.Bounds()
			tb, tok := tree.Bounds()
			if fok != tok || (fok && fb != tb) {
				t.Fatalf("n=%d: Bounds %v/%v, want %v/%v", n, fb, fok, tb, tok)
			}
			var all []int32
			f.All(func(e Entry[geom.Rect]) bool { all = append(all, e.ID); return true })
			if len(all) != n {
				t.Fatalf("n=%d: All visited %d entries", n, len(all))
			}
			for q := 0; q < 50; q++ {
				query := randomRect(rng)
				want := treeSearch(tree, query)
				if got := flatSearch(f, query); !equalIDs(got, want) {
					t.Fatalf("n=%d query %v: flat %v, tree %v", n, query, got, want)
				}
				if got, want := f.Count(query), tree.Count(query); got != want {
					t.Fatalf("n=%d query %v: Count %d, want %d", n, query, got, want)
				}
				_, fAny := f.SearchAny(query)
				_, tAny := tree.SearchAny(query)
				if fAny != tAny {
					t.Fatalf("n=%d query %v: SearchAny %v, want %v", n, query, fAny, tAny)
				}
				var fs, ts trace.Span
				f.SearchTraced(query, &fs, func(Entry[geom.Rect]) bool { return true })
				tree.SearchTraced(query, &ts, func(Entry[geom.Rect]) bool { return true })
				if fs.Counters != ts.Counters {
					t.Fatalf("n=%d query %v: trace counters %+v, want %+v", n, query, fs.Counters, ts.Counters)
				}
				// The 2D instantiation of the predicate search: the bounds
				// handed out in place must be the bounds stored.
				meets := func(b *geom.Rect) bool { return b.Intersects(query) }
				odd := func(id int32) bool { return id%2 == 1 }
				var fw, tw trace.Span
				if got, want := f.SearchAnyWhere(&fw, meets, odd), tree.SearchAnyWhere(&tw, meets, odd); got != want || fw.Counters != tw.Counters {
					t.Fatalf("n=%d query %v: SearchAnyWhere %v with %+v, want %v with %+v", n, query, got, fw.Counters, want, tw.Counters)
				}
			}
		}
	}
}

// TestFlattenEarlyStop checks that a callback returning false stops the
// flat traversal like it stops the pointer traversal.
func TestFlattenEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	entries := randomRectEntries(rng, 200)
	flat := Flatten(BulkLoad(entries, 16))
	seen := 0
	done := flat.Search(geom.NewRect(0, 0, 100, 100), func(Entry[geom.Rect]) bool {
		seen++
		return seen < 3
	})
	if done || seen != 3 {
		t.Fatalf("early stop: done=%v seen=%d, want false/3", done, seen)
	}
}

// TestNewFlatRejectsCorruption feeds NewFlat systematically damaged
// arrays; each must produce an error, never a panic or an accepted
// inconsistent tree.
func TestNewFlatRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := Flatten(BulkLoad(randomRectEntries(rng, 300), 16))

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
		empty := Flatten(BulkLoad[geom.Rect](nil, 16))
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
}

// TestFlatMemoryBytes sanity-checks the footprint accounting: nonzero,
// and growing with the entry count.
func TestFlatMemoryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	small := Flatten(BulkLoad(randomRectEntries(rng, 50), 16))
	big := Flatten(BulkLoad(randomRectEntries(rng, 5000), 16))
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
	tree := BulkLoad(append([]Entry[geom.Box3](nil), entries...), 16)
	flat := Flatten(tree)
	nb, nm, eb, ids := flat.Raw()
	rebuilt, err := NewFlat[geom.Box3](flat.Meta(), nb, nm, eb, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Validate(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		x, y, z := rng.Float64()*90, rng.Float64()*90, rng.Float64()*90
		query := geom.NewBox3(x, y, z, x+10, y+10, z+10)
		if got, want := rebuilt.Count(query), tree.Count(query); got != want {
			t.Fatalf("query %d: Count %d, want %d", q, got, want)
		}
	}
}
