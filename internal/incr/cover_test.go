package incr

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// TestGiantRelabelCostIndependentOfOutDegree is the count guard on
// relabeling the giant: a giant of a thousand users that checks into 2k
// venues, or into 16k, loses its only edge to a stream venue, which
// makes it the seed of the next flush. The flush re-derives its label
// from the coverage count and reads no successor label at either size;
// a relabel that gathers and merges reads one per venue.
func TestGiantRelabelCostIndependentOfOutDegree(t *testing.T) {
	const users = 1000
	for _, venues := range []int{2000, 16000} {
		// Venues users..users+venues-1 are visited round-robin; venue w,
		// the last vertex, by user 5 alone.
		w := users + venues
		edges := giantEdges(users)
		for i := 0; i < venues; i++ {
			edges = append(edges, [2]int{i % users, users + i})
		}
		edges = append(edges, [2]int{5, w})
		spatial := make([]bool, w+1)
		points := make([]geom.Point, w+1)
		for v := users; v <= w; v++ {
			spatial[v] = true
			points[v] = geom.Pt(float64(v%100), float64(v/100%100))
		}
		x := New(dataset.Prepare(&dataset.Network{Name: "giant", Graph: graph.FromEdges(w+1, edges), Spatial: spatial, Points: points}), Options{})
		giant := x.comp.at(0)
		if x.cov.c != giant {
			t.Fatalf("%d venues: the counted component is %d, not the giant %d", venues, x.cov.c, giant)
		}
		before, reads := x.Stats(), x.relabelReads
		if err := x.DeleteEdge(5, w); err != nil {
			t.Fatal(err)
		}
		if err := x.Validate(); err != nil { // flushes the relabel
			t.Fatal(err)
		}
		after := x.Stats()
		if after.ConeRelabels != before.ConeRelabels+1 || after.RelabeledComps != before.RelabeledComps+1 {
			t.Fatalf("%d venues: want one cone relabel of the giant alone, got %+v", venues, after)
		}
		if x.labels.at(giant).ContainsCanonical(x.post.at(x.comp.at(int32(w)))) {
			t.Errorf("%d venues: the giant's label still holds the post of the venue it no longer visits", venues)
		}
		if got := x.relabelReads - reads; got != 0 {
			t.Errorf("%d venues: the flush read %d successor labels; want 0", venues, got)
		}
	}
}
