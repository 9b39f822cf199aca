package rtree

import (
	"strings"
	"testing"

	"repro/internal/geom"
)

func gridEntries(n int) []Entry[geom.Rect] {
	entries := make([]Entry[geom.Rect], n)
	for i := range entries {
		x := float64(i%10) * 10
		y := float64(i/10) * 10
		entries[i] = Entry[geom.Rect]{Box: geom.NewRect(x, y, x+5, y+5), ID: int32(i)}
	}
	return entries
}

func wantValidateErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("want error containing %q, got: %v", substr, err)
	}
}

// firstLeaf returns the index of the first leaf node.
func firstLeaf(f *Flat[geom.Rect]) uint32 {
	i := uint32(0)
	for f.nodeMeta[2*i+1]&1 == 0 {
		i = f.nodeMeta[2*i]
	}
	return i
}

func TestValidateBulkLoaded(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000} {
		tr := BulkLoad(gridEntries(n), 0, 0)
		if err := tr.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// The corruption cases below damage a built tree's arrays in place:
// Validate on a built tree (Index.Validate, rrserve -check, the dynamic
// engine's publish check) has no NewFlat in front of it, so it must
// catch structural damage as well as geometric.

func TestValidateMBRExcludesEntry(t *testing.T) {
	tr := BulkLoad(gridEntries(100), 4, 0)
	// Shrink the MBR of the first leaf to its first entry: still inside
	// the parent's, no longer around the other entries.
	leaf := firstLeaf(tr)
	*tr.boundRef(leaf) = *tr.entryRef(tr.nodeMeta[2*leaf])
	wantValidateErr(t, tr.Validate(), "does not contain entry")
}

func TestValidateMBRExcludesChild(t *testing.T) {
	tr := BulkLoad(gridEntries(1000), 4, 0)
	if tr.Height() < 2 {
		t.Fatal("tree too shallow for the test")
	}
	*tr.boundRef(0) = geom.NewRect(0, 0, 1, 1)
	wantValidateErr(t, tr.Validate(), "does not contain child")
}

func TestValidateSizeMismatch(t *testing.T) {
	tr := BulkLoad(gridEntries(50), 4, 0)
	tr.size++
	wantValidateErr(t, tr.Validate(), "size")

	// The arrays agree with the size but a leaf run stops short of them.
	tr = BulkLoad(gridEntries(50), 4, 0)
	last := uint32(tr.NumNodes() - 1)
	tr.nodeMeta[2*last+1] -= 1 << 1
	wantValidateErr(t, tr.Validate(), "size")
}

func TestValidateOverFanout(t *testing.T) {
	tr := BulkLoad(gridEntries(100), 8, 0)
	tr.maxEntries = 4
	wantValidateErr(t, tr.Validate(), "fan-out is 4")
}

func TestValidateUnbalanced(t *testing.T) {
	// root → {leaf a, internal mid → {leaf b}}: every run tiles the
	// arrays and the first-child chain is two levels, as stored.
	a, b := geom.NewRect(0, 0, 1, 1), geom.NewRect(2, 2, 3, 3)
	var nb, eb []float64
	for _, r := range []geom.Rect{a.Union(b), a, b, b} {
		nb = r.AppendCoords(nb)
	}
	eb = b.AppendCoords(a.AppendCoords(eb))
	tr := &Flat[geom.Rect]{
		dims: 2, maxEntries: 16, height: 2, size: 2,
		nodeBounds:  nb,
		nodeMeta:    []uint32{1, 2 << 1, 0, 1<<1 | 1, 3, 1 << 1, 1, 1<<1 | 1},
		entryBounds: eb,
		entryIDs:    []int32{1, 2},
	}
	wantValidateErr(t, tr.Validate(), "not balanced")
}

// TestValidateMixedNode: the flat form has one leaf bit per node, so the
// pointer tree's leaf-with-children becomes a leaf marked internal — its
// entry run would then be read as a child run.
func TestValidateMixedNode(t *testing.T) {
	tr := BulkLoad(gridEntries(100), 4, 0)
	tr.nodeMeta[len(tr.nodeMeta)-1] &^= 1
	wantValidateErr(t, tr.Validate(), "mixes leaves and internal nodes")
}

func TestValidateEmptyTree(t *testing.T) {
	if err := BulkLoad[geom.Rect](nil, 0, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	tr := BulkLoad[geom.Rect](nil, 0, 0)
	tr.size = 3
	wantValidateErr(t, tr.Validate(), "size 3")
}
