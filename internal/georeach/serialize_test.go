package georeach

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// reassembled passes idx's columns back through FromFlat, the way a
// load does.
func reassembled(prep *dataset.Prepared, idx *Index) (*Index, error) {
	flags, rmbr, gridOff, gridKeys := idx.FlatColumns()
	return FromFlat(prep, idx.FlatMeta(), flags, rmbr, gridOff, gridKeys)
}

// TestSPAGraphSerializeRoundTrip: whatever Build freezes, FromFlat
// accepts, and the reassembled index counts and answers the same.
func TestSPAGraphSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	for trial := 0; trial < 10; trial++ {
		net := randomNetwork(rng, 5+rng.Intn(25), 2+rng.Intn(20))
		prep := dataset.Prepare(net)
		idx := Build(prep, Params{MaxReachGrids: 4, MergeCount: 2, Levels: 5})

		loaded, err := reassembled(prep, idx)
		if err != nil {
			t.Fatal(err)
		}
		g1, r1, b1 := idx.CountKinds()
		g2, r2, b2 := loaded.CountKinds()
		if g1 != g2 || r1 != r2 || b1 != b2 {
			t.Fatalf("kind counts changed: %d/%d/%d -> %d/%d/%d", g1, r1, b1, g2, r2, b2)
		}
		if loaded.MemoryBytes() != idx.MemoryBytes() {
			t.Fatalf("memory accounting changed: %d -> %d",
				idx.MemoryBytes(), loaded.MemoryBytes())
		}
		for q := 0; q < 30; q++ {
			v := rng.Intn(net.NumVertices())
			r := randomRegion(rng)
			if loaded.RangeReach(v, r) != idx.RangeReach(v, r) {
				t.Fatalf("trial %d: loaded SPA-graph disagrees at v=%d", trial, v)
			}
		}
	}
}

// fixtureV1 returns the SPA-Graph stream inside the root package's
// frozen georeach-v1.idx (behind its 7-byte engine header) and the
// network that file was built over, the paper's running example.
func fixtureV1(t *testing.T) (*dataset.Prepared, []byte) {
	t.Helper()
	file, err := os.ReadFile("../../testdata/format/georeach-v1.idx")
	if err != nil {
		t.Fatal(err)
	}
	net := &dataset.Network{
		Name: "figure1",
		Graph: graph.FromEdges(12, [][2]int{
			{0, 1}, {0, 3}, {0, 9},
			{1, 4}, {1, 11}, {1, 3},
			{2, 8}, {2, 10}, {2, 3},
			{4, 5}, {6, 8}, {8, 5}, {9, 6}, {9, 7}, {11, 7},
		}),
		Spatial: make([]bool, 12),
		Points:  make([]geom.Point, 12),
	}
	for v, p := range map[int]geom.Point{
		4: geom.Pt(70, 80), 7: geom.Pt(80, 60), 5: geom.Pt(10, 10),
		8: geom.Pt(20, 90), 11: geom.Pt(40, 20),
	} {
		net.Spatial[v], net.Points[v] = true, p
	}
	return dataset.Prepare(net), file[7:]
}

// TestSPAGraphReadValidation pins the v1 decoder's own checks — the
// ones that size its reads — on the frozen stream. Everything past
// them is FromFlat's, and the root package's every-offset corruption
// pass over the v1 fixtures covers the two together.
func TestSPAGraphReadValidation(t *testing.T) {
	prep, valid := fixtureV1(t)
	loaded, err := Read(prep, bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if !sameColumns(loaded, Build(prep, Params{})) {
		t.Error("the decoded v1 stream differs from a fresh build over the same network")
	}

	// Wrong network.
	other := dataset.Prepare(randomNetwork(rand.New(rand.NewSource(709)), 3, 2))
	if _, err := Read(other, bytes.NewReader(valid)); err == nil {
		t.Error("size mismatch accepted")
	}
	for name, input := range map[string][]byte{
		"empty":       {},
		"bad-magic":   append([]byte("WHAT"), valid[4:]...),
		"bad-version": append(append([]byte{}, valid[:4]...), append([]byte{42}, valid[5:]...)...),
		"truncated":   valid[:12],
		"short-grids": valid[:len(valid)-4],
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(prep, bytes.NewReader(input)); err == nil {
				t.Error("corrupt input accepted")
			}
		})
	}

	// v1 promised no key order: a stream with one ReachGrid written
	// backwards decodes to the same ascending columns.
	n := prep.NumComponents()
	grids := 4 + 1 + 4 + 1 + 32 + n*(2+32) // header, then {kind, geoB, rmbr} per vertex
	count := 0
	for ; grids < len(valid); grids += 4 + 8*count {
		if count = int(binary.LittleEndian.Uint32(valid[grids:])); count >= 2 {
			break
		}
	}
	if count < 2 {
		t.Fatal("no ReachGrid of the fixture has two cells")
	}
	backwards := slices.Clone(valid)
	for i := 0; i < count; i++ {
		copy(backwards[grids+4+8*i:], valid[grids+4+8*(count-1-i):][:8])
	}
	reordered, err := Read(prep, bytes.NewReader(backwards))
	if err != nil {
		t.Fatalf("unordered v1 keys refused: %v", err)
	}
	if !sameColumns(reordered, loaded) {
		t.Error("unordered v1 keys decoded to different columns")
	}
}

func TestSPAGraphSerializeDegenerate(t *testing.T) {
	// A network with no spatial vertices still round-trips.
	net := &dataset.Network{
		Name:    "dry",
		Graph:   graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		Spatial: make([]bool, 4),
		Points:  make([]geom.Point, 4),
	}
	prep := dataset.Prepare(net)
	loaded, err := reassembled(prep, Build(prep, Params{}))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.RangeReach(0, geom.NewRect(-1e9, -1e9, 1e9, 1e9)) {
		t.Error("spatial-free network answered TRUE after reload")
	}
}
