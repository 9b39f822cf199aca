package bfl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/graph"
)

// The v1 stream: the format BFL labels were saved in before the flat
// image. Nothing writes it any more; Read keeps old files loadable.
// Queries need the graph for the pruned-DFS fallback, so Read takes the
// (cheaply reconstructible) DAG. Versioned little-endian binary:
//
//	magic "RRBF" | version u8 | n u32 | words u32 |
//	hash [n]i32 | out [n*words]u64 | in [n*words]u64 |
//	discover [n]i32 | finish [n]i32

var bflMagic = [4]byte{'R', 'R', 'B', 'F'}

const bflVersion = 1

// Read decodes a v1 BFL stream into the flat columns and returns
// through FromFlat, which validates them and attaches the index to g —
// the same DAG the index was built over (reachability answers are
// undefined otherwise). The checks here are only those that size a
// read.
func Read(g *graph.Graph, r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic [4]byte
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("bfl: reading magic: %w", err)
	}
	if magic != bflMagic {
		return nil, fmt.Errorf("bfl: bad magic %q", magic)
	}
	var version uint8
	if err := read(&version); err != nil {
		return nil, fmt.Errorf("bfl: reading version: %w", err)
	}
	if version != bflVersion {
		return nil, fmt.Errorf("bfl: unsupported version %d", version)
	}
	var n, words uint32
	if err := read(&n); err != nil {
		return nil, fmt.Errorf("bfl: reading sizes: %w", err)
	}
	if err := read(&words); err != nil {
		return nil, fmt.Errorf("bfl: reading sizes: %w", err)
	}
	if int(n) != g.NumVertices() {
		return nil, fmt.Errorf("bfl: index has %d vertices, graph has %d", n, g.NumVertices())
	}
	if words > maxWords {
		return nil, fmt.Errorf("bfl: implausible filter width %d words", words)
	}
	hash := make([]int32, n)
	out := make([]uint64, int(n)*int(words))
	in := make([]uint64, int(n)*int(words))
	discover := make([]int32, n)
	finish := make([]int32, n)
	for _, column := range []any{hash, out, in, discover, finish} {
		if err := read(column); err != nil {
			return nil, fmt.Errorf("bfl: reading labels: %w", err)
		}
	}
	return FromFlat(g, int(words), hash, out, in, discover, finish)
}
