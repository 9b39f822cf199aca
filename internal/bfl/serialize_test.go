package bfl

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"testing"

	"repro/internal/graph"
)

// TestBFLSerializeRoundTrip: whatever Build produces, FromFlat accepts
// as columns, and the reassembled index answers reachability.
func TestBFLSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(40)
		g := randomDAG(rng, n, rng.Intn(4*n))
		idx := Build(g, Options{Seed: int64(trial)})

		words, hash, out, in, discover, finish := idx.Flat()
		got, err := FromFlat(g, words, hash, out, in, discover, finish)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			reach := g.Reachable(u)
			for v := 0; v < n; v++ {
				if got.Reach(u, v) != reach[v] {
					t.Fatalf("trial %d: loaded Reach(%d,%d) wrong", trial, u, v)
				}
			}
		}
	}
}

// TestBFLReadValidation pins the v1 decoder's own checks — the ones
// that size its reads — on the BFL stream inside the root package's
// frozen spareach-bfl-v1.idx (behind its 7-byte engine header). Only
// the vertex count of the graph matters to them, so an edgeless graph
// of that size stands in for the fixture's DAG; the root package's
// every-offset corruption pass over the v1 fixtures covers the rest.
func TestBFLReadValidation(t *testing.T) {
	file, err := os.ReadFile("../../testdata/format/spareach-bfl-v1.idx")
	if err != nil {
		t.Fatal(err)
	}
	valid := file[7:]
	n := int(binary.LittleEndian.Uint32(valid[5:])) // magic[4] | version | n
	g := graph.NewBuilder(n).Build()
	if _, err := Read(g, bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}

	// Wrong graph size.
	if _, err := Read(graph.NewBuilder(n+1).Build(), bytes.NewReader(valid)); err == nil {
		t.Error("size mismatch accepted")
	}
	// Corrupt inputs.
	for name, input := range map[string][]byte{
		"empty":     {},
		"bad-magic": append([]byte("NOPE"), valid[4:]...),
		"truncated": valid[:10],
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(g, bytes.NewReader(input)); err == nil {
				t.Error("corrupt input accepted")
			}
		})
	}
}
