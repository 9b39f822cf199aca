package core

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestValidateEngineRejectsCorruptBuiltTree damages the arrays of each
// built engine's R-tree in place. A built index has no loader in front
// of it, so ValidateEngine alone stands between such a tree and a query:
// it must name structural damage as well as a broken containment.
func TestValidateEngineRejectsCorruptBuiltTree(t *testing.T) {
	prep := dataset.Prepare(dataset.GowallaLike(0.1, 7))
	for _, c := range []struct {
		name   string
		method Method
		policy dataset.SCCPolicy
	}{
		{"3dreach", MethodThreeDReach, dataset.Replicate},
		{"3dreach-mbr", MethodThreeDReach, dataset.MBR},
		{"3dreach-rev", MethodThreeDReachRev, dataset.Replicate},
		{"spareach-int", MethodSpaReachINT, dataset.Replicate},
	} {
		res, err := BuildMethod(prep, c.method, BuildOptions{Policy: c.policy})
		if err != nil {
			t.Fatal(err)
		}
		var nodeBounds, entryBounds []float64
		var nodeMeta []uint32
		var fanout int
		switch e := res.Engine.(type) {
		case *ThreeDReach:
			tree := e.boxes
			if e.points != nil {
				tree = e.points.(rtreeIndex).t
			}
			nodeBounds, nodeMeta, entryBounds, _ = tree.Raw()
			fanout = tree.Meta().MaxEntries
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
		for _, d := range []struct {
			want   string
			damage func()
		}{
			{"does not contain entry", func() { entryBounds[0] -= 1e9 }},
			{"does not contain child", func() { copy(nodeBounds[:stride], entryBounds) }},
			{"size says", func() { nodeMeta[last] -= 1 << 1 }},
			{"not balanced", func() { nodeMeta[last] &^= 1 }},
			{"fan-out is", func() { nodeMeta[1] = uint32(fanout+1) << 1 }},
		} {
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
