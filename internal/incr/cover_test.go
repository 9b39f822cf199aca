package incr

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// giantNet is the giant-SCC fixture of the cost guards: a giant of a
// thousand users that checks into the given number of venues round-
// robin. Venue w, the next vertex, is visited by user 5 alone, and
// user w+1, the last vertex, is followed by user 5 and follows nobody.
func giantNet(venues int) (net *dataset.Network, w int) {
	const users = 1000
	w = users + venues
	edges := giantEdges(users)
	for i := 0; i < venues; i++ {
		edges = append(edges, [2]int{i % users, users + i})
	}
	edges = append(edges, [2]int{5, w}, [2]int{5, w + 1})
	spatial := make([]bool, w+2)
	points := make([]geom.Point, w+2)
	for v := users; v <= w; v++ {
		spatial[v] = true
		points[v] = geom.Pt(float64(v%100), float64(v/100%100))
	}
	return &dataset.Network{Name: "giant", Graph: graph.FromEdges(w+2, edges), Spatial: spatial, Points: points}, w
}

// TestGiantRelabelCostIndependentOfOutDegree is the count guard on
// relabeling the giant: a giant that checks into 2k venues, or into
// 16k, loses its only edge to one of them, which makes it the seed of
// the next flush. The flush re-derives its label from the coverage
// count and reads no successor label at either size; a relabel that
// gathers and merges reads one per venue. The count's sweep reads one
// bitmap word per 64 posts and, beyond them, only the entries that are
// non-zero or were touched since the last sweep — the same handful at
// both sizes; a sweep of the whole coverage array reads one per post.
func TestGiantRelabelCostIndependentOfOutDegree(t *testing.T) {
	var entries [2]int
	for i, venues := range []int{2000, 16000} {
		net, w := giantNet(venues)
		x := New(dataset.Prepare(net), Options{})
		giant := x.comp.at(0)
		if x.cov.c != giant {
			t.Fatalf("%d venues: the counted component is %d, not the giant %d", venues, x.cov.c, giant)
		}
		before, reads, swept := x.Stats(), x.relabelReads, x.cov.swept
		if err := x.DeleteEdge(5, w); err != nil {
			t.Fatal(err)
		}
		after := x.Stats() // flushes the relabel
		if after.ConeRelabels != before.ConeRelabels+1 || after.RelabeledComps != before.RelabeledComps+1 {
			t.Fatalf("%d venues: want one cone relabel of the giant alone, got %+v", venues, after)
		}
		if x.labels.at(giant).ContainsCanonical(x.post.at(x.comp.at(int32(w)))) {
			t.Errorf("%d venues: the giant's label still holds the post of the venue it no longer visits", venues)
		}
		if got := x.relabelReads - reads; got != 0 {
			t.Errorf("%d venues: the flush read %d successor labels; want 0", venues, got)
		}
		entries[i] = x.cov.swept - swept - len(x.cov.nz)
		nonzero := 0
		for _, d := range x.cov.delta {
			if d != 0 {
				nonzero++
			}
		}
		// The two entries the retired successor's label touched may have
		// returned to zero.
		if entries[i] > nonzero+2 {
			t.Errorf("%d venues: the sweep read %d entries beyond its %d bitmap words, for %d non-zero entries",
				venues, entries[i], len(x.cov.nz), nonzero)
		}
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if entries[0] != entries[1] {
		t.Errorf("the sweep read %d entries beyond its bitmap words at 2k venues and %d at 16k; want equal", entries[0], entries[1])
	}
}

// TestCycleInsertCostIndependentOfOutDegree is the count guard on the
// cycle search: an insert from the user the giant follows back into the
// giant closes a cycle through the two. Finding that region reads the
// new tail's in-row and looks the tail up in the giant's out-row, the
// same two steps at 2k venues as at 16k; a forward pass that scans the
// giant's out-row reads one entry per venue.
func TestCycleInsertCostIndependentOfOutDegree(t *testing.T) {
	var reads [2]int
	for i, venues := range []int{2000, 16000} {
		net, w := giantNet(venues)
		x := New(dataset.Prepare(net), Options{})
		before := x.cycleReads
		if err := x.AddEdge(w+1, 7); err != nil {
			t.Fatal(err)
		}
		reads[i] = x.cycleReads - before
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
		if s := x.Stats(); s.Merges != 1 || x.comp.at(int32(w+1)) != x.comp.at(0) {
			t.Fatalf("%d venues: want the user the giant follows merged into it, got %+v", venues, s)
		}
	}
	if reads[0] != reads[1] || reads[0] > 4 {
		t.Errorf("the cycle search read %d row entries at 2k venues and %d at 16k; want equal and a handful", reads[0], reads[1])
	}
}
