package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/trace"
)

// leafZBounds collects every leaf's z-range, the places where an
// off-by-one in a z-overlap test would show.
func leafZBounds(f *Flat[geom.Box3]) []int32 {
	var out []int32
	for i := 0; i < f.NumNodes(); i++ {
		if f.nodeMeta[2*i+1]&1 == 1 {
			b := f.boundRef(uint32(i))
			out = append(out, int32(b.Min.Z), int32(b.Max.Z))
		}
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

// TestSearchAnyWhereEqualsPerIntervalSearch checks the label-pruned
// traversal against the evaluation it replaces: it finds a witness iff
// some per-interval cuboid search does; it shows meets each bound at
// most once; and a miss expands no more nodes than the per-interval
// searches together, each at most once.
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
		tr := BulkLoad(entries, 4+rng.Intn(13), 0)
		cuts := leafZBounds(tr)
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

			var sp trace.Span
			tested := 0
			got := tr.SearchAnyWhere(&sp, func(b *geom.Box3) bool { tested++; return meets(b) })
			if tested > 1+int(sp.IndexNodes)*tr.maxEntries+int(sp.IndexEntries) {
				t.Fatalf("trial %d: tested %d bounds after expanding %d nodes and %d entries", trial, tested, sp.IndexNodes, sp.IndexEntries)
			}
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
		}
	}
	if found < 100 || missed < 100 {
		t.Errorf("lopsided draw: %d queries with a witness, %d without", found, missed)
	}
	if BulkLoad[geom.Box3](nil, 0, 0).SearchAnyWhere(nil, func(*geom.Box3) bool { return true }) {
		t.Error("empty tree produced a witness")
	}
}
