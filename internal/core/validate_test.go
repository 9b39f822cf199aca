package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/dataset"
	"repro/internal/intervals"
	"repro/internal/labeling"
)

// TestValidateEngineRejectsCorruptBuiltTree damages the arrays of each
// built engine's R-tree in place. A built index has no loader in front
// of it, so ValidateEngine alone stands between such a tree and a query:
// it must name structural damage as well as a broken containment, and,
// for the 3D trees, whose entries it derives from the network, two
// entries of one leaf that swapped z-ranges, which keeps every bound.
func TestValidateEngineRejectsCorruptBuiltTree(t *testing.T) {
	points := dataset.Prepare(dataset.GowallaLike(0.1, 7))
	extents := dataset.Prepare(withExtents(rand.New(rand.NewSource(4)), dataset.GowallaLike(0.1, 7)))
	for _, c := range []struct {
		name   string
		prep   *dataset.Prepared
		method Method
		entry  string // what ValidateEngine calls a 3D entry; "" for 2D
	}{
		{"3dreach-extents", extents, MethodThreeDReach, "box"},
		{"3dreach-rev", points, MethodThreeDReachRev, "segment"},
		{"spareach-int", points, MethodSpaReachINT, ""},
	} {
		res, err := BuildMethod(c.prep, c.method, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var nodeBounds, entryBounds []float64
		var nodeMeta []uint32
		var fanout int
		switch e := res.Engine.(type) {
		case *ThreeDReach:
			nodeBounds, nodeMeta, entryBounds, _ = e.boxes.Raw()
			fanout = e.boxes.Meta().MaxEntries
		case *ThreeDReachRev:
			nodeBounds, nodeMeta, entryBounds, _ = e.tree.Raw()
			fanout = e.tree.Meta().MaxEntries
		case *SpaReach:
			nodeBounds, nodeMeta, entryBounds, _ = e.tree.Raw()
			fanout = e.tree.Meta().MaxEntries
		}
		if nodeMeta[1]&1 == 1 {
			t.Fatalf("%s: one-leaf tree, too shallow for the test", c.name)
		}
		if err := ValidateEngine(res.Engine); err != nil {
			t.Fatalf("%s: fresh engine invalid: %v", c.name, err)
		}
		last, stride := len(nodeMeta)-1, len(nodeBounds)/(len(nodeMeta)/2)
		type damage struct {
			want   string
			damage func()
		}
		damages := []damage{
			{"does not contain entry", func() { entryBounds[0] -= 1e9 }},
			{"does not contain child", func() { copy(nodeBounds[:stride], entryBounds) }},
			{"size says", func() { nodeMeta[last] -= 1 << 1 }},
			{"not balanced", func() { nodeMeta[last] &^= 1 }},
			{"fan-out is", func() { nodeMeta[1] = uint32(fanout+1) << 1 }},
		}
		if c.entry != "" {
			// The last node is a leaf; find two of its entries at
			// different heights. Bounds are {min x, y, z, max x, y, z}.
			first, n := int(nodeMeta[last-1]), int(nodeMeta[last]>>1)
			a, b := first, first+1
			for b < first+n && entryBounds[6*b+2] == entryBounds[6*a+2] {
				b++
			}
			if b == first+n {
				t.Fatalf("%s: every entry of the last leaf is at one height", c.name)
			}
			damages = append(damages, damage{c.entry + " of id", func() {
				for _, k := range []int{2, 5} {
					entryBounds[6*a+k], entryBounds[6*b+k] = entryBounds[6*b+k], entryBounds[6*a+k]
				}
			}})
		}
		for _, d := range damages {
			saved := [][]float64{append([]float64(nil), nodeBounds...), append([]float64(nil), entryBounds...)}
			savedMeta := append([]uint32(nil), nodeMeta...)
			d.damage()
			if err := ValidateEngine(res.Engine); err == nil || !strings.Contains(err.Error(), d.want) {
				t.Errorf("%s: want an error containing %q, got %v", c.name, d.want, err)
			}
			copy(nodeBounds, saved[0])
			copy(entryBounds, saved[1])
			copy(nodeMeta, savedMeta)
		}
		if err := ValidateEngine(res.Engine); err != nil {
			t.Fatalf("%s: restored engine invalid: %v", c.name, err)
		}
	}
}

// TestValidateEngineRejectsCorruptRanks damages the rank keys of a
// built 3DReach in place: a spatial component's label that drops its own
// rank, a user's label that no longer nests its successor's, and a tile
// whose key is its component's rank plus one. A user's empty label is
// not damage: a component with no spatial descendant has nothing to
// hold. The network numbers its users first, so a depth-first walk
// posts users among the venues and no venue's rank is its post.
func TestValidateEngineRejectsCorruptRanks(t *testing.T) {
	prep := dataset.Prepare(randomNetwork(rand.New(rand.NewSource(37)), 300, 150, false))
	res, err := BuildMethod(prep, MethodThreeDReach, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := res.Engine.(*ThreeDReach)
	if e.l.Spatial == nil {
		t.Fatal("a built 3DReach is not rank-keyed")
	}
	if err := ValidateEngine(e); err != nil {
		t.Fatalf("fresh engine invalid: %v", err)
	}
	moved := 0
	for c, key := range e.l.Keys() {
		if key != 0 && key != e.l.Post[c] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("every venue's rank equals its post: the test cannot tell the keys apart")
	}
	l := e.l
	// A spatial sink (its label is its own rank alone), and an edge from a
	// user to a component with a non-empty label.
	sink, user, empty := -1, -1, -1
	for c := range prep.NumComponents() {
		if sink < 0 && prep.HasSpatial[c] && len(prep.DAG.Out(c)) == 0 {
			sink = c
		}
		if user < 0 && !prep.HasSpatial[c] {
			for _, d := range prep.DAG.Out(c) {
				if len(l.Label(int(d))) > 0 {
					user = c
				}
			}
		}
		if len(l.Label(c)) == 0 {
			empty = c
		}
	}
	if sink < 0 || user < 0 || empty < 0 {
		t.Fatalf("no spatial sink (%d), user with a labeled successor (%d) or empty label (%d)", sink, user, empty)
	}
	tiles := e.points.Columns()
	last := tiles.CellPoints[1] - 1
	for _, d := range []struct {
		want   string
		damage func()
	}{
		{"does not contain own rank", func() { e.l = relabel(t, l, sink, nil) }},
		{fmt.Sprintf("L(%d) does not", user), func() { e.l = relabel(t, l, user, nil) }},
		{"its component's is", func() { tiles.Post[last]++ }},
	} {
		savedKey := tiles.Post[last]
		d.damage()
		if err := ValidateEngine(e); err == nil || !strings.Contains(err.Error(), d.want) {
			t.Errorf("want an error containing %q, got %v", d.want, err)
		}
		e.l, tiles.Post[last] = l, savedKey
	}
	if err := ValidateEngine(e); err != nil {
		t.Fatalf("restored engine invalid: %v", err)
	}
}

// TestValidateEngineRejectsCorruptTiles damages 3DReach's point tiles in
// place, one invariant at a time: those of the tiles alone (post order
// within a cell, cell bounds, slab and cell order) and those against the
// network and labeling (post, location, every spatial vertex once).
func TestValidateEngineRejectsCorruptTiles(t *testing.T) {
	prep := dataset.Prepare(dataset.GowallaLike(0.1, 7))
	res, err := BuildMethod(prep, MethodThreeDReach, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEngine(res.Engine); err != nil {
		t.Fatalf("fresh engine invalid: %v", err)
	}
	c := res.Engine.(*ThreeDReach).points.Columns()
	if len(c.SlabX) < 4 || c.SlabCells[1] < 2 {
		t.Fatalf("%d slabs, %d cells in the first: too small for the test", len(c.SlabX)/2, c.SlabCells[1])
	}
	// The first point of the first cell whose posts are not all equal,
	// the last point of the first cell, a y in that cell's bounds other
	// than point 0's, and a vertex that is not spatial.
	k := 0
	for c.Post[k] == c.Post[k+1] {
		k++
	}
	last := c.CellPoints[1] - 1
	y := c.CellMBR[1]
	if y == c.Y[0] {
		y = c.CellMBR[3]
	}
	user := int32(0)
	for prep.Net.Spatial[user] {
		user++
	}
	for _, d := range []struct {
		want   string
		damage func()
	}{
		{"out of order", func() { c.Post[k], c.Post[k+1] = c.Post[k+1], c.Post[k] }},
		{"outside cell", func() { c.X[0] = c.CellMBR[2] + 1 }},
		{"before slab 0 ends", func() { c.SlabX[2] = c.SlabX[1] - 1 }},
		{"before cell 0 ends", func() { c.CellMBR[5] = c.CellMBR[3] - 1 }},
		{"its component's is", func() { c.Post[last]++ }},
		{"the network has it", func() { c.Y[0] = y }},
		{"appears twice", func() { c.ID[1] = c.ID[0] }},
		{"not a spatial vertex", func() { c.ID[0] = user }},
	} {
		saved := c
		saved.SlabX = append([]float64(nil), c.SlabX...)
		saved.CellMBR = append([]float64(nil), c.CellMBR...)
		saved.X, saved.Y = append([]float64(nil), c.X...), append([]float64(nil), c.Y...)
		saved.Post, saved.ID = append([]int32(nil), c.Post...), append([]int32(nil), c.ID...)
		d.damage()
		if err := ValidateEngine(res.Engine); err == nil || !strings.Contains(err.Error(), d.want) {
			t.Errorf("want an error containing %q, got %v", d.want, err)
		}
		copy(c.SlabX, saved.SlabX)
		copy(c.CellMBR, saved.CellMBR)
		copy(c.X, saved.X)
		copy(c.Y, saved.Y)
		copy(c.Post, saved.Post)
		copy(c.ID, saved.ID)
	}
	if err := ValidateEngine(res.Engine); err != nil {
		t.Fatalf("restored engine invalid: %v", err)
	}
}

// TestValidateEngineRejectsCorruptRev damages what a built 3DReach-Rev
// query reads, in place: one segment's z-range shrunk inside its leaf's
// bound, which the tree's containment check cannot see, and two
// components' posts swapped, which keeps them a permutation. The
// reversed labeling ValidateEngine rebuilds to compare against is
// itself checked first.
func TestValidateEngineRejectsCorruptRev(t *testing.T) {
	prep := dataset.Prepare(dataset.GowallaLike(0.1, 7))
	if err := check.Labeling(prep.DAG.Reverse(), reversedLabeling(prep, 2)); err != nil {
		t.Fatalf("reversed labeling: %v", err)
	}
	res, err := BuildMethod(prep, MethodThreeDReachRev, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := res.Engine.(*ThreeDReachRev)
	if err := ValidateEngine(e); err != nil {
		t.Fatalf("fresh engine invalid: %v", err)
	}
	// Entry bounds are {min x, y, z, max x, y, z}: find a segment over
	// more than one post.
	_, _, bounds, _ := e.tree.Raw()
	j := 0
	for 6*j < len(bounds) && bounds[6*j+2] == bounds[6*j+5] {
		j++
	}
	if 6*j == len(bounds) {
		t.Fatal("every segment spans one post")
	}
	for _, d := range []struct {
		name, want string
		damage     func()
	}{
		{"shrunk-segment", "segment of id", func() { bounds[6*j+2] = bounds[6*j+5] }},
		{"swapped-posts", "component 0 has post", func() { e.post[0], e.post[1] = e.post[1], e.post[0] }},
	} {
		t.Run(d.name, func(t *testing.T) {
			savedBounds, savedPost := append([]float64(nil), bounds...), append([]int32(nil), e.post...)
			defer func() {
				copy(bounds, savedBounds)
				copy(e.post, savedPost)
			}()
			d.damage()
			if err := ValidateEngine(e); err == nil || !strings.Contains(err.Error(), d.want) {
				t.Errorf("want an error containing %q, got %v", d.want, err)
			}
		})
	}
	if err := ValidateEngine(e); err != nil {
		t.Fatalf("restored engine invalid: %v", err)
	}
}

// relabel returns l with L(v) replaced by set, over new columns.
func relabel(t *testing.T, l *labeling.Labeling, v int, set intervals.Set) *labeling.Labeling {
	t.Helper()
	post, order, off, data := l.FlatColumns()
	lo, hi := off[v], off[v+1]
	data = append(append(append(intervals.Set{}, data[:lo]...), set...), data[hi:]...)
	off = append([]uint64{}, off...)
	for u := v + 1; u < len(off); u++ {
		off[u] = off[u] - (hi - lo) + uint64(len(set))
	}
	out, err := labeling.FromFlat(post, order, off, data, l.UncompressedCount, l.CompressedCount)
	if err != nil {
		t.Fatal(err)
	}
	out.Spatial = l.Spatial
	return out
}
