package georeach

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// The v1 stream: the format SPA-Graphs were saved in before the flat
// image. Nothing writes it any more; Read keeps old files loadable.
// Versioned little-endian binary:
//
//	magic "RRGR" | version u8 | n u32 | levels u8 | space 4×f64 |
//	per vertex: kind u8, geoB u8, rmbr 4×f64 |
//	per G-vertex: count u32, count × key u64

var georeachMagic = [4]byte{'R', 'R', 'G', 'R'}

const georeachVersion = 1

// Read decodes a v1 SPA-Graph stream into the flat columns and returns
// through FromFlat, which validates them and attaches the index to
// prep. The checks here are only those that size a read.
func Read(prep *dataset.Prepared, r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var magic [4]byte
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("georeach: reading magic: %w", err)
	}
	if magic != georeachMagic {
		return nil, fmt.Errorf("georeach: bad magic %q", magic)
	}
	var version uint8
	if err := read(&version); err != nil {
		return nil, fmt.Errorf("georeach: reading version: %w", err)
	}
	if version != georeachVersion {
		return nil, fmt.Errorf("georeach: unsupported version %d", version)
	}
	var n uint32
	var levels uint8
	var space [4]float64
	if err := read(&n); err != nil {
		return nil, fmt.Errorf("georeach: reading size: %w", err)
	}
	if err := read(&levels); err != nil {
		return nil, fmt.Errorf("georeach: reading levels: %w", err)
	}
	if err := read(&space); err != nil {
		return nil, fmt.Errorf("georeach: reading space: %w", err)
	}
	if int(n) != prep.NumComponents() {
		return nil, fmt.Errorf("georeach: index has %d components, network has %d",
			n, prep.NumComponents())
	}
	flags := make([]uint8, 2*n)
	rmbr := make([]float64, 4*n)
	for v := uint32(0); v < n; v++ {
		if err := read(flags[2*v : 2*v+2]); err != nil {
			return nil, fmt.Errorf("georeach: reading vertex %d: %w", v, err)
		}
		if err := read(rmbr[4*v : 4*v+4]); err != nil {
			return nil, fmt.Errorf("georeach: reading vertex %d: %w", v, err)
		}
	}
	gridOff := make([]uint64, n+1)
	var gridKeys []uint64
	for v := uint32(0); v < n; v++ {
		gridOff[v] = uint64(len(gridKeys))
		if Kind(flags[2*v]) != GVertex {
			continue
		}
		var count uint32
		if err := read(&count); err != nil {
			return nil, fmt.Errorf("georeach: reading grid of %d: %w", v, err)
		}
		if count > 1<<24 {
			return nil, fmt.Errorf("georeach: implausible grid size %d", count)
		}
		gridKeys = slices.Grow(gridKeys, int(count))[:len(gridKeys)+int(count)]
		run := gridKeys[gridOff[v]:]
		if err := read(run); err != nil {
			return nil, fmt.Errorf("georeach: reading grid of %d: %w", v, err)
		}
		// v1 promised no key order; the columns want each run ascending.
		slices.Sort(run)
	}
	gridOff[n] = uint64(len(gridKeys))
	return FromFlat(prep, FlatMeta{
		Levels: int(levels),
		Space:  geom.NewRect(space[0], space[1], space[2], space[3]),
	}, flags, rmbr, gridOff, gridKeys)
}
