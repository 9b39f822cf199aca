package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func randomRect(rng *rand.Rand) geom.Rect {
	x := rng.Float64() * 100
	y := rng.Float64() * 100
	return geom.NewRect(x, y, x+rng.Float64()*10, y+rng.Float64()*10)
}

func randomPointEntries(rng *rand.Rand, n int) []Entry[geom.Rect] {
	entries := make([]Entry[geom.Rect], n)
	for i := range entries {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		entries[i] = Entry[geom.Rect]{Box: geom.RectFromPoint(p), ID: int32(i)}
	}
	return entries
}

func randomRectEntries(rng *rand.Rand, n int) []Entry[geom.Rect] {
	entries := make([]Entry[geom.Rect], n)
	for i := range entries {
		entries[i] = Entry[geom.Rect]{Box: randomRect(rng), ID: int32(i)}
	}
	return entries
}

// count returns the number of entries of tr that meet q, through Search.
func count[B Bound[B]](tr *Flat[B], q B) int {
	n := 0
	tr.Search(q, func(Entry[B]) bool {
		n++
		return true
	})
	return n
}

// bruteSearch returns the sorted ids of entries intersecting q.
func bruteSearch(entries []Entry[geom.Rect], q geom.Rect) []int32 {
	var ids []int32
	for _, e := range entries {
		if e.Box.Intersects(q) {
			ids = append(ids, e.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func treeSearch(t *Flat[geom.Rect], q geom.Rect) []int32 {
	var ids []int32
	t.Search(q, func(e Entry[geom.Rect]) bool {
		ids = append(ids, e.ID)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBulkLoadSearchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(500)
		entries := randomRectEntries(rng, n)
		tr := BulkLoad(append([]Entry[geom.Rect](nil), entries...), 8, 0)
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for q := 0; q < 20; q++ {
			query := randomRect(rng)
			if !equalIDs(treeSearch(tr, query), bruteSearch(entries, query)) {
				t.Fatalf("trial %d: search mismatch", trial)
			}
		}
	}
}

func TestSearchAnyAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	entries := randomPointEntries(rng, 400)
	tr := BulkLoad(entries, 0, 0)
	for q := 0; q < 50; q++ {
		query := randomRect(rng)
		want := bruteSearch(entries, query)
		got, ok := tr.SearchAny(query)
		if ok != (len(want) > 0) {
			t.Fatalf("SearchAny ok = %v, want %v", ok, len(want) > 0)
		}
		if ok {
			found := false
			for _, id := range want {
				if id == got.ID {
					found = true
				}
			}
			if !found {
				t.Fatal("SearchAny returned non-matching entry")
			}
		}
		if got := count(tr, query); got != len(want) {
			t.Fatalf("count = %d, want %d", got, len(want))
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	tr := BulkLoad[geom.Rect](nil, 0, 0)
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Error("empty tree stats wrong")
	}
	if _, ok := tr.SearchAny(geom.NewRect(0, 0, 1, 1)); ok {
		t.Error("empty tree found something")
	}
	if len(tr.nodeMeta) != 0 {
		t.Error("empty tree has a root")
	}

	tr = BulkLoad([]Entry[geom.Rect]{{Box: geom.RectFromPoint(geom.Pt(5, 5)), ID: 9}}, 0, 0)
	if tr.Len() != 1 || tr.Height() != 1 {
		t.Error("singleton tree stats wrong")
	}
	e, ok := tr.SearchAny(geom.NewRect(4, 4, 6, 6))
	if !ok || e.ID != 9 {
		t.Error("singleton search failed")
	}
	if b := *tr.boundRef(0); b != geom.RectFromPoint(geom.Pt(5, 5)) {
		t.Error("singleton bounds wrong")
	}
}

func TestBox3Tree(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	var entries []Entry[geom.Box3]
	for i := 0; i < 300; i++ {
		p := geom.Pt3(rng.Float64()*100, rng.Float64()*100, float64(rng.Intn(1000)))
		entries = append(entries, Entry[geom.Box3]{Box: geom.Box3FromPoint(p), ID: int32(i)})
	}
	// Vertical segments too.
	for i := 300; i < 400; i++ {
		z := float64(rng.Intn(900))
		seg := geom.Box3FromRect(geom.RectFromPoint(geom.Pt(rng.Float64()*100, rng.Float64()*100)), z, z+float64(rng.Intn(100)))
		entries = append(entries, Entry[geom.Box3]{Box: seg, ID: int32(i)})
	}
	tr := BulkLoad(append([]Entry[geom.Box3](nil), entries...), 8, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 40; q++ {
		query := geom.Box3FromRect(randomRect(rng), float64(rng.Intn(1000)), float64(rng.Intn(1000)))
		want := make(map[int32]bool)
		for _, e := range entries {
			if e.Box.Intersects(query) {
				want[e.ID] = true
			}
		}
		got := make(map[int32]bool)
		tr.Search(query, func(e Entry[geom.Box3]) bool {
			got[e.ID] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("3D search: got %d, want %d", len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("3D search missing id %d", id)
			}
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	entries := randomPointEntries(rng, 500)
	full := BulkLoad(append([]Entry[geom.Rect](nil), entries...), 8, 0)
	asPoints := BulkLoad(append([]Entry[geom.Rect](nil), entries...), 8, 16)
	if asPoints.MemoryBytes() >= full.MemoryBytes() {
		t.Errorf("point accounting %d >= rect accounting %d",
			asPoints.MemoryBytes(), full.MemoryBytes())
	}
	if len(full.nodeMeta) == 0 {
		t.Error("no nodes")
	}
}

func TestDuplicatePointsAndDegenerateData(t *testing.T) {
	// Many identical points must still build a valid tree.
	var entries []Entry[geom.Rect]
	for i := 0; i < 100; i++ {
		entries = append(entries, Entry[geom.Rect]{Box: geom.RectFromPoint(geom.Pt(1, 1)), ID: int32(i)})
	}
	tr := BulkLoad(entries, 4, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := count(tr, geom.NewRect(0, 0, 2, 2)); got != 100 {
		t.Errorf("count = %d, want 100", got)
	}
	if got := count(tr, geom.NewRect(2, 2, 3, 3)); got != 0 {
		t.Errorf("count = %d, want 0", got)
	}
}

func TestEarlyTerminationStopsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	entries := randomPointEntries(rng, 1000)
	tr := BulkLoad(entries, 8, 0)
	visits := 0
	completed := tr.Search(geom.NewRect(0, 0, 100, 100), func(Entry[geom.Rect]) bool {
		visits++
		return visits < 3
	})
	if completed || visits != 3 {
		t.Errorf("early termination: completed=%v visits=%d", completed, visits)
	}
}
