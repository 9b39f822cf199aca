package rangereach

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/incr"
)

// TestBuildDynamicLeavesNetworkUntouched runs an update stream through
// a dynamic index over GowallaLike(0.05, 1) twice, once built by
// BuildDynamic and once in FullRebuild mode, so that the rebuild path
// runs too. The index starts from the network's CSR rows and Prepare's
// condensation, so neither arm may write into them: after each stream
// the network's Save, a fresh static 3DReach build's Save, the in-rows
// and Prepare's components and member runs must be what they were
// before it.
func TestBuildDynamicLeavesNetworkUntouched(t *testing.T) {
	net := GowallaLike(0.05, 1)
	type state struct {
		network, index []byte
		in, comp       [][]int32 // every vertex's in-row; Comp, then every member run
	}
	take := func() state {
		var s state
		var nb, ib bytes.Buffer
		if err := net.Save(&nb); err != nil {
			t.Fatal(err)
		}
		if err := net.MustBuild(ThreeDReach).Save(&ib); err != nil {
			t.Fatal(err)
		}
		s.network, s.index = nb.Bytes(), ib.Bytes()
		for v := range net.NumVertices() {
			s.in = append(s.in, slices.Clone(net.net.Graph.In(v)))
		}
		s.comp = append(s.comp, slices.Clone(net.prep.Comp))
		for c := range net.prep.NumComponents() {
			s.comp = append(s.comp, slices.Clone(net.prep.Members(c)))
		}
		return s
	}
	want := take()
	for _, arm := range []struct {
		name string
		x    *incr.Index
	}{
		{"BuildDynamic", net.BuildDynamic().engine},
		{"FullRebuild", incr.New(net.prep, incr.Options{Mode: incr.FullRebuild})},
	} {
		runUntouchedStream(t, arm.x, net.prep)
		st := arm.x.Stats()
		if arm.name == "BuildDynamic" && (st.Merges == 0 || st.Splits == 0) {
			t.Fatalf("%s: %d merges and %d splits; the stream must close and break a cycle", arm.name, st.Merges, st.Splits)
		}
		if arm.name == "FullRebuild" && st.FullRebuilds == 0 {
			t.Fatalf("%s: the stream ran no rebuild", arm.name)
		}
		got := take()
		switch {
		case !bytes.Equal(got.network, want.network):
			t.Fatalf("%s: the network's Save changed", arm.name)
		case !bytes.Equal(got.index, want.index):
			t.Fatalf("%s: a fresh static build's Save changed", arm.name)
		case !slices.EqualFunc(got.in, want.in, slices.Equal):
			t.Fatalf("%s: the network's in-rows changed", arm.name)
		case !slices.EqualFunc(got.comp, want.comp, slices.Equal):
			t.Fatalf("%s: Prepare's components or member runs changed", arm.name)
		}
	}
}

// runUntouchedStream deletes base edges inside the giant component,
// merges a new user into it and splits it off again, closes and breaks
// a cycle between two more new users, and moves, adds and links venues, publishing a snapshot after each step; the index must then
// validate.
func runUntouchedStream(t *testing.T, x *incr.Index, prep *dataset.Prepared) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	g := prep.Net.Graph
	giant := 0
	for c := range prep.NumComponents() {
		if len(prep.Members(c)) > len(prep.Members(giant)) {
			giant = c
		}
	}
	m := prep.Members(giant)
	for _, u := range m[:16] {
		must(x.DeleteEdge(int(u), int(g.Out(int(u))[0])))
	}
	x.Snapshot()

	a, b := int(m[len(m)-1]), int(m[len(m)-2])
	w := x.AddUser()
	must(x.AddEdge(a, w))
	must(x.AddEdge(w, b))
	x.Snapshot()
	must(x.DeleteEdge(w, b))
	x.Snapshot()

	p, q := x.AddUser(), x.AddUser()
	must(x.AddEdge(a, p))
	must(x.AddEdge(p, q))
	must(x.AddEdge(q, p))
	x.Snapshot()
	must(x.DeleteEdge(q, p))
	x.Snapshot()

	moved := 0
	for v := range prep.Net.NumVertices() {
		if prep.Net.Spatial[v] && moved < 200 {
			must(x.MoveVenue(v, float64(moved%50)+1, float64(moved/50)+1))
			moved++
		}
	}
	for i := range 8 {
		must(x.AddEdge(int(m[i%len(m)]), x.AddVenue(float64(10+i), 20)))
	}
	x.Snapshot()
	must(x.Validate())
}
