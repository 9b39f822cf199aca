package rtree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/trace"
)

// leafZBounds collects every leaf's z-range, the places where an
// off-by-one in a z-overlap test would show.
func leafZBounds(n *node[geom.Box3], out []int32) []int32 {
	if n.leaf {
		return append(out, int32(n.bounds.Min.Z), int32(n.bounds.Max.Z))
	}
	for _, c := range n.children {
		out = leafZBounds(c, out)
	}
	return out
}

// labelWithCuts draws a canonical label over [1, zMax] of up to want
// intervals. Half its interval ends sit exactly on, just below or just
// above a leaf's z bound, so gaps open and close at leaf boundaries.
func labelWithCuts(rng *rand.Rand, cuts []int32, zMax int32, want int) intervals.Set {
	var s intervals.Set
	for i := 0; i < 2*want; i++ {
		lo := int32(1 + rng.Intn(int(zMax)))
		if rng.Intn(2) == 0 {
			lo = cuts[rng.Intn(len(cuts))] + int32(rng.Intn(3)) - 1
		}
		hi := lo + int32(rng.Intn(3)*rng.Intn(int(zMax)/want+1))
		if rng.Intn(4) == 0 {
			hi = cuts[rng.Intn(len(cuts))] + int32(rng.Intn(3)) - 1
		}
		if lo <= hi {
			s = s.Add(lo, hi)
		}
	}
	s = s.Compress()
	if len(s) > want {
		s = s[:want]
	}
	return s
}

// sameWalk runs SearchAnyWhere on the pointer tree and on its flat form
// and fails unless the two agree on the answer, on the node, leaf and
// entry counts, and on the sequence of bounds shown to meets.
func sameWalk(t *testing.T, tr *Tree[geom.Box3], flat *Flat[geom.Box3], meets func(*geom.Box3) bool, keep func(int32) bool) (bool, trace.Span) {
	t.Helper()
	var sp, fsp trace.Span
	var seen, fseen []geom.Box3
	got := tr.SearchAnyWhere(&sp, func(b *geom.Box3) bool { seen = append(seen, *b); return meets(b) }, keep)
	fgot := flat.SearchAnyWhere(&fsp, func(b *geom.Box3) bool { fseen = append(fseen, *b); return meets(b) }, keep)
	if got != fgot || sp.Counters != fsp.Counters {
		t.Fatalf("tree answers %v with %+v, its flat form %v with %+v", got, sp.Counters, fgot, fsp.Counters)
	}
	if !slices.Equal(seen, fseen) {
		t.Fatalf("tree tested %d bounds, its flat form %d, or in another order", len(seen), len(fseen))
	}
	return got, sp
}

// TestSearchAnyWhereEqualsPerIntervalSearch checks the label-pruned
// traversal against the evaluation it replaces: it finds a witness iff
// some per-interval cuboid SearchAny does, on bulk-loaded and
// insert-built trees and on the flat form of each (same answer, same
// counts, same visit order), with no tombstones, with every hit
// tombstoned, and with all but one; and a miss expands no more nodes
// than the per-interval searches together, each at most once.
func TestSearchAnyWhereEqualsPerIntervalSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const zMax = 4000
	found, missed := 0, 0
	for trial := 0; trial < 60; trial++ {
		entries := make([]Entry[geom.Box3], 200+rng.Intn(1500))
		for i := range entries {
			p := geom.Pt3(rng.Float64()*100, rng.Float64()*100, float64(1+rng.Intn(zMax)))
			entries[i] = Entry[geom.Box3]{Box: geom.Box3FromPoint(p), ID: int32(i)}
		}
		var tr *Tree[geom.Box3]
		if trial%2 == 0 {
			tr = BulkLoad(append([]Entry[geom.Box3](nil), entries...), 4+rng.Intn(13))
		} else {
			tr = New[geom.Box3](4 + rng.Intn(13))
			for _, e := range entries {
				tr.Insert(e)
			}
		}
		flattened := Flatten(tr)
		nb, nm, eb, ids := flattened.Raw()
		flat, err := NewFlat[geom.Box3](flattened.Meta(), nb, nm, eb, ids)
		if err != nil {
			t.Fatal(err)
		}
		cuts := leafZBounds(tr.root, nil)
		for q := 0; q < 40; q++ {
			r := randomRect(rng)
			label := labelWithCuts(rng, cuts, zMax, 1+rng.Intn(200))
			meets := func(b *geom.Box3) bool {
				return b.Rect().Intersects(r) && label.OverlapsCanonical(int32(b.Min.Z), int32(b.Max.Z))
			}

			hits := map[int32]bool{}
			var per trace.Span
			for _, iv := range label {
				tr.SearchTraced(geom.Box3FromRect(r, float64(iv.Lo), float64(iv.Hi)), &per, func(e Entry[geom.Box3]) bool {
					hits[e.ID] = true
					return true
				})
			}

			got, sp := sameWalk(t, tr, flat, meets, func(int32) bool { return true })
			if got != (len(hits) > 0) {
				t.Fatalf("trial %d: SearchAnyWhere = %v with %d per-interval hits (label %v, region %v)", trial, got, len(hits), label, r)
			}
			if !got {
				missed++
				if sp.IndexNodes > per.IndexNodes || sp.IndexLeaves > per.IndexLeaves {
					t.Fatalf("trial %d: a miss expanded %d nodes + %d leaves, the per-interval searches %d + %d",
						trial, sp.IndexNodes, sp.IndexLeaves, per.IndexNodes, per.IndexLeaves)
				}
				if int(sp.IndexNodes+sp.IndexLeaves) > tr.NumNodes() {
					t.Fatalf("trial %d: expanded %d nodes of a %d-node tree", trial, sp.IndexNodes+sp.IndexLeaves, tr.NumNodes())
				}
				continue
			}
			found++
			if all, _ := sameWalk(t, tr, flat, meets, func(id int32) bool { return !hits[id] }); all {
				t.Fatalf("trial %d: found a witness with every hit tombstoned", trial)
			}
			var spared int32
			for id := range hits {
				spared = id
				break
			}
			if one, _ := sameWalk(t, tr, flat, meets, func(id int32) bool { return id == spared || !hits[id] }); !one {
				t.Fatalf("trial %d: missed entry %d, the one hit not tombstoned", trial, spared)
			}
		}
	}
	if found < 100 || missed < 100 {
		t.Errorf("lopsided draw: %d queries with a witness, %d without", found, missed)
	}
	empty := New[geom.Box3](0)
	if got, _ := sameWalk(t, empty, Flatten(empty), func(*geom.Box3) bool { return true }, func(int32) bool { return true }); got {
		t.Error("empty tree produced a witness")
	}
}
