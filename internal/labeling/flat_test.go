package labeling

import (
	"math/rand"
	"testing"

	"repro/internal/intervals"
)

// TestLabelingSerializeRoundTrip: whatever Build produces, FromFlat
// accepts as columns, and the reassembled labeling is the same one.
func TestLabelingSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		g := randomDAG(rng, n, rng.Intn(4*n))
		l := Build(g, Options{})

		post, order, offsets, data := l.FlatColumns()
		got, err := FromFlat(post, order, offsets, data, l.UncompressedCount, l.CompressedCount)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumVertices() != n {
			t.Fatal("vertex count changed")
		}
		for v := 0; v < n; v++ {
			if got.Post[v] != l.Post[v] {
				t.Fatalf("post of %d changed", v)
			}
			if !got.Labels[v].Equal(l.Labels[v]) {
				t.Fatalf("labels of %d changed: %v vs %v", v, got.Labels[v], l.Labels[v])
			}
		}
		if got.UncompressedCount != l.UncompressedCount || got.CompressedCount != l.CompressedCount {
			t.Fatal("stats changed")
		}
		// Queries still work on the loaded labeling.
		for u := 0; u < n; u++ {
			reach := g.Reachable(u)
			for v := 0; v < n; v++ {
				if got.Reach(u, v) != reach[v] {
					t.Fatalf("loaded Reach(%d,%d) wrong", u, v)
				}
			}
		}
	}
}

// TestLoadRejectsUnorderedLabelSet: a label set whose intervals are
// swapped or overlap is a load error — the queries binary-search it —
// while the adjacent, unmerged singletons of the compression ablation
// still load and still answer.
func TestLoadRejectsUnorderedLabelSet(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(79)), 40, 90)
	load := func(l *Labeling) error {
		post, order, offsets, data := l.FlatColumns()
		_, err := FromFlat(post, order, offsets, data, l.UncompressedCount, l.CompressedCount)
		return err
	}

	raw := Build(g, Options{SkipCompression: true})
	if err := load(raw); err != nil {
		t.Fatalf("uncompressed labeling refused: %v", err)
	}

	l := Build(g, Options{})
	v := 0
	for len(l.Labels[v]) < 2 {
		v++
	}
	good := l.Labels[v]
	for name, bad := range map[string]intervals.Set{
		"swapped":     append(intervals.Set{good[1], good[0]}, good[2:]...),
		"overlapping": append(intervals.Set{good[0], {Lo: good[0].Hi, Hi: good[1].Hi}}, good[2:]...),
	} {
		l.Labels[v] = bad
		if load(l) == nil {
			t.Errorf("%s intervals %v of vertex %d accepted", name, bad, v)
		}
	}
}
