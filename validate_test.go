package rangereach_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	rangereach "repro"
)

// TestValidateAfterBuild deep-checks every engine the public API can
// build, 3DReach over both of its spatial indexes.
func TestValidateAfterBuild(t *testing.T) {
	net := figure1(t)
	all := append([]rangereach.Method{rangereach.Naive, rangereach.MethodAuto}, rangereach.Methods...)
	for _, m := range all {
		idx, err := net.Build(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := idx.Validate(); err != nil {
			t.Errorf("%v: Validate() = %v", m, err)
		}
	}
	idx, err := withVenueExtents(t, net).Build(rangereach.ThreeDReach)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Validate(); err != nil {
		t.Errorf("extents: Validate() = %v", err)
	}
}

// TestValidateAfterRoundtrip checks persisted indexes: LoadIndex runs
// Validate internally, and the loaded index passes an explicit call.
func TestValidateAfterRoundtrip(t *testing.T) {
	net := figure1(t)
	for _, m := range []rangereach.Method{rangereach.ThreeDReach, rangereach.GeoReach} {
		idx := net.MustBuild(m)
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		loaded, err := net.LoadIndex(&buf)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := loaded.Validate(); err != nil {
			t.Errorf("%v: loaded index fails validation: %v", m, err)
		}
	}
}

// TestDynamicValidateRandomized drives a dynamic index through a
// seeded random update sequence, deep-checking after every batch, and
// validates snapshots taken along the way.
func TestDynamicValidateRandomized(t *testing.T) {
	net := figure1(t)
	idx := net.BuildDynamic()
	if err := idx.Validate(); err != nil {
		t.Fatalf("fresh dynamic index: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	var snapshots []*rangereach.DynamicSnapshot
	var edges [][2]int
	var venues []int
	for batch := 0; batch < 20; batch++ {
		for op := 0; op < 25; op++ {
			switch rng.Intn(6) {
			case 0:
				idx.AddUser()
			case 1:
				venues = append(venues, idx.AddVenue(rng.Float64()*100, rng.Float64()*100))
			case 2:
				if len(edges) > 0 {
					i := rng.Intn(len(edges))
					e := edges[i]
					edges[i] = edges[len(edges)-1]
					edges = edges[:len(edges)-1]
					// The same edge may have been inserted twice; a
					// missing-edge error on the second delete is fine.
					_ = idx.DeleteEdge(e[0], e[1])
				}
			case 3:
				if len(venues) > 0 {
					v := venues[rng.Intn(len(venues))]
					if err := idx.MoveVenue(v, rng.Float64()*100, rng.Float64()*100); err != nil {
						t.Fatalf("batch %d: move venue %d: %v", batch, v, err)
					}
				}
			default:
				n := idx.NumVertices()
				u, v := rng.Intn(n), rng.Intn(n)
				// Cycle-closing edges merge components; only out-of-range
				// endpoints error, and these are in range.
				if err := idx.AddEdge(u, v); err != nil {
					t.Fatalf("batch %d: add edge (%d,%d): %v", batch, u, v, err)
				}
				if u != v {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		if err := idx.Validate(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if batch%5 == 0 {
			snapshots = append(snapshots, idx.Snapshot())
		}
	}
	for i, s := range snapshots {
		if err := s.Validate(); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
	}
}

// TestLoadCorrupted feeds systematically corrupted index files to
// LoadIndex: truncations at every byte boundary (covering every
// section boundary) and single-byte flips at every offset, over every
// persistable method's default save and every other layout still read
// (layoutInputs). Every case must return a wrapped error or a fully
// validated index — never panic.
func TestLoadCorrupted(t *testing.T) {
	net := figure1(t)
	var inputs []corruptionInput
	for _, m := range []rangereach.Method{rangereach.ThreeDReach, rangereach.GeoReach} {
		inputs = append(inputs, corruptionInput{m.String(), net, savedImage(t, net, m)})
	}
	for _, in := range append(inputs, layoutInputs(t, net)...) {
		load := func(name string, data []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s/%s: LoadIndex panicked: %v", in.name, name, r)
				}
			}()
			loaded, err := in.net.LoadIndex(bytes.NewReader(data))
			if err != nil {
				if !strings.Contains(err.Error(), ":") {
					t.Errorf("%s/%s: unwrapped error %q", in.name, name, err)
				}
				return
			}
			// Corruption that still decodes must yield a structurally
			// valid index (LoadIndex guarantees it; double-check).
			if err := loaded.Validate(); err != nil {
				t.Errorf("%s/%s: accepted index fails validation: %v", in.name, name, err)
			}
		}

		everyOffset(in.data, load)
	}
}
