package labeling

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/intervals"
)

// Serialization lets applications persist the labeling — the expensive
// part of every interval-based index on fragmented networks — and reload
// it without rebuilding. The format is versioned little-endian binary:
//
//	magic "RRLB" | version u8 | n u32 | post [n]i32 |
//	per vertex: count u32, count × (lo i32, hi i32) |
//	uncompressed i64 | compressed i64
//
// The spanning forest is construction-time state and is not persisted;
// a loaded Labeling has Forest == nil, which no query path touches.

var labelingMagic = [4]byte{'R', 'R', 'L', 'B'}

const labelingVersion = 1

// WriteTo serializes l. It implements io.WriterTo.
func (l *Labeling) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	write := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }

	if err := write(labelingMagic); err != nil {
		return cw.n, err
	}
	if err := write(uint8(labelingVersion)); err != nil {
		return cw.n, err
	}
	if err := write(uint32(len(l.Post))); err != nil {
		return cw.n, err
	}
	if err := write(l.Post); err != nil {
		return cw.n, err
	}
	for _, set := range l.Labels {
		if err := write(uint32(len(set))); err != nil {
			return cw.n, err
		}
		if len(set) > 0 {
			if err := write(set); err != nil {
				return cw.n, err
			}
		}
	}
	if err := write(l.UncompressedCount); err != nil {
		return cw.n, err
	}
	if err := write(l.CompressedCount); err != nil {
		return cw.n, err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadLabeling deserializes a labeling written by WriteTo. The result
// answers queries but carries no spanning forest.
func ReadLabeling(r io.Reader) (*Labeling, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic [4]byte
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("labeling: reading magic: %w", err)
	}
	if magic != labelingMagic {
		return nil, fmt.Errorf("labeling: bad magic %q", magic)
	}
	var version uint8
	if err := read(&version); err != nil {
		return nil, fmt.Errorf("labeling: reading version: %w", err)
	}
	if version != labelingVersion {
		return nil, fmt.Errorf("labeling: unsupported version %d", version)
	}
	var n uint32
	if err := read(&n); err != nil {
		return nil, fmt.Errorf("labeling: reading size: %w", err)
	}
	const maxVertices = 1 << 30
	if n > maxVertices {
		return nil, fmt.Errorf("labeling: implausible vertex count %d", n)
	}
	l := &Labeling{
		Post:   make([]int32, n),
		Order:  make([]int32, n),
		Labels: make([]intervals.Set, n),
	}
	if err := read(l.Post); err != nil {
		return nil, fmt.Errorf("labeling: reading posts: %w", err)
	}
	seen := make([]bool, n)
	for v, p := range l.Post {
		if p < 1 || p > int32(n) || seen[p-1] {
			return nil, fmt.Errorf("labeling: corrupt post number %d for vertex %d", p, v)
		}
		seen[p-1] = true
		l.Order[p-1] = int32(v)
	}
	for v := range l.Labels {
		var count uint32
		if err := read(&count); err != nil {
			return nil, fmt.Errorf("labeling: reading label count of %d: %w", v, err)
		}
		if count > n {
			return nil, fmt.Errorf("labeling: implausible label count %d", count)
		}
		if count == 0 {
			continue
		}
		set := make(intervals.Set, count)
		if err := read(set); err != nil {
			return nil, fmt.Errorf("labeling: reading labels of %d: %w", v, err)
		}
		if err := validSet(set, int(n)); err != nil {
			return nil, err
		}
		l.Labels[v] = set
	}
	if err := read(&l.UncompressedCount); err != nil {
		return nil, fmt.Errorf("labeling: reading stats: %w", err)
	}
	if err := read(&l.CompressedCount); err != nil {
		return nil, fmt.Errorf("labeling: reading stats: %w", err)
	}
	return l, nil
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
