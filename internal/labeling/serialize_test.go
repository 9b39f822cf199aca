package labeling

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/intervals"
)

// fixtureV1 returns the labeling stream inside one of the root
// package's frozen v1 fixtures, behind its 7-byte engine header.
func fixtureV1(t testing.TB, slug string) []byte {
	t.Helper()
	file, err := os.ReadFile("../../testdata/format/" + slug + "-v1.idx")
	if err != nil {
		t.Fatal(err)
	}
	return file[7:]
}

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

// TestReadLabelingRejectsCorruptInput pins the v1 decoder's own checks
// — the ones that size its reads — and one hand-off to FromFlat, on the
// frozen stream. The root package's every-offset corruption pass over
// the v1 fixtures covers the rest.
func TestReadLabelingRejectsCorruptInput(t *testing.T) {
	valid := fixtureV1(t, "3dreach")
	if _, err := ReadLabeling(bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":       {},
		"bad-magic":   append([]byte("XXXX"), valid[4:]...),
		"bad-version": append(append([]byte{}, valid[:4]...), append([]byte{99}, valid[5:]...)...),
		"truncated":   valid[:len(valid)/2],
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadLabeling(bytes.NewReader(input)); err == nil {
				t.Error("corrupt input accepted")
			}
		})
	}

	// Corrupt post numbers: duplicate posts must be rejected.
	corrupt := append([]byte{}, valid...)
	// Posts start after magic(4) + version(1) + n(4) = offset 9; make the
	// second post equal the first.
	copy(corrupt[13:17], corrupt[9:13])
	if _, err := ReadLabeling(bytes.NewReader(corrupt)); err == nil {
		t.Error("duplicate post numbers accepted")
	}

	if _, err := ReadLabeling(strings.NewReader("RRLB\x01\xff\xff\xff\xff")); err == nil {
		t.Error("implausible vertex count accepted")
	}
}

// TestLoadRejectsUnorderedLabelSet: a label set whose intervals are
// swapped or overlap is a load error — the queries binary-search it —
// while the adjacent, unmerged singletons of the compression ablation
// still load and still answer. Both codecs assemble through FromFlat.
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
