package labeling

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/intervals"
)

// The v1 stream: the format labelings were saved in before the flat
// image. Nothing writes it any more; ReadLabeling keeps old files
// loadable. Versioned little-endian binary:
//
//	magic "RRLB" | version u8 | n u32 | post [n]i32 |
//	per vertex: count u32, count × (lo i32, hi i32) |
//	uncompressed i64 | compressed i64
//
// The spanning forest is construction-time state and is not persisted;
// a loaded Labeling has Forest == nil, which no query path touches.

var labelingMagic = [4]byte{'R', 'R', 'L', 'B'}

const labelingVersion = 1

// ReadLabeling decodes a v1 labeling stream into the flat columns and
// returns through FromFlat, which validates them. The checks here are
// only those that size a read. The result answers queries but carries
// no spanning forest.
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
	if n > maxVertices {
		return nil, fmt.Errorf("labeling: implausible vertex count %d", n)
	}
	post := make([]int32, n)
	if err := read(post); err != nil {
		return nil, fmt.Errorf("labeling: reading posts: %w", err)
	}
	// v1 does not store the inverse permutation. A post outside [1,n]
	// has no slot to fill; FromFlat refuses it, and a duplicate too.
	order := make([]int32, n)
	for v, p := range post {
		if p >= 1 && uint32(p) <= n {
			order[p-1] = int32(v)
		}
	}
	offsets := make([]uint64, n+1)
	var data intervals.Set
	for v := range post {
		var count uint32
		if err := read(&count); err != nil {
			return nil, fmt.Errorf("labeling: reading label count of %d: %w", v, err)
		}
		if count > n {
			return nil, fmt.Errorf("labeling: implausible label count %d", count)
		}
		data = slices.Grow(data, int(count))[:len(data)+int(count)]
		if err := read(data[offsets[v]:]); err != nil {
			return nil, fmt.Errorf("labeling: reading labels of %d: %w", v, err)
		}
		offsets[v+1] = uint64(len(data))
	}
	var uncompressed, compressed int64
	if err := read(&uncompressed); err != nil {
		return nil, fmt.Errorf("labeling: reading stats: %w", err)
	}
	if err := read(&compressed); err != nil {
		return nil, fmt.Errorf("labeling: reading stats: %w", err)
	}
	return FromFlat(post, order, offsets, data, uncompressed, compressed)
}
