package georeach

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
)

// Flat form: the SPA-Graph as four structure-of-arrays columns — what
// Index holds, what the flat index format persists as aligned sections,
// and what a mapped open overlays without copying.
//
//	flags    [2n]u8          — per vertex {kind, geoB}, interleaved
//	rmbr     [4n]f64         — per vertex MinX, MinY, MaxX, MaxY
//	gridOff  [n+1]u64        — G-vertex v's keys are gridKeys[off[v]:off[v+1]]
//	gridKeys [Σ]u64          — ascending cell keys, concatenated by vertex
//
// Keys ascend within each vertex's run so the columns are canonical
// (identical SPA-Graphs serialize to identical bytes) and Validate can
// binary-search a run; the query only ever scans one.

// FlatColumns returns the columns the index holds. gridOff has
// NumVertices()+1 entries; non-G vertices have empty key runs. The
// slices alias the index's storage and must not be mutated.
func (idx *Index) FlatColumns() (flags []uint8, rmbr []float64, gridOff []uint64, gridKeys []uint64) {
	return idx.flags, idx.rmbr, idx.gridOff, idx.gridKeys
}

// FlatMeta carries the SPA-Graph's scalar shape through a manifest.
type FlatMeta struct {
	Levels int
	Space  geom.Rect
}

// FlatMeta returns the manifest scalars of idx.
func (idx *Index) FlatMeta() FlatMeta {
	return FlatMeta{Levels: idx.h.Levels(), Space: idx.h.Space()}
}

// FromFlat assembles a SPA-Graph over persisted columns and attaches it
// to prep. It is the one place outside input is checked, whether the
// columns were decoded or mapped: column lengths against the network, a plausible
// level count, kinds within range, offsets tiling the key array, keys
// only under G-vertices and ascending within a run. The slices are
// adopted, not copied — a mapped open allocates only the Index header
// and its hierarchy — so they must stay alive, unmodified, as long as
// the index does.
func FromFlat(prep *dataset.Prepared, meta FlatMeta, flags []uint8, rmbr []float64, gridOff []uint64, gridKeys []uint64) (*Index, error) {
	n := prep.NumComponents()
	if len(flags) != 2*n {
		return nil, fmt.Errorf("georeach: %d flag bytes for %d components", len(flags), n)
	}
	if len(rmbr) != 4*n {
		return nil, fmt.Errorf("georeach: %d rmbr values for %d components", len(rmbr), n)
	}
	if len(gridOff) != n+1 {
		return nil, fmt.Errorf("georeach: %d grid offsets for %d components", len(gridOff), n)
	}
	if meta.Levels < 1 || meta.Levels > 20 {
		return nil, fmt.Errorf("georeach: implausible level count %d", meta.Levels)
	}
	if n > 0 && gridOff[0] != 0 {
		return nil, fmt.Errorf("georeach: grid offsets start at %d, not 0", gridOff[0])
	}
	if gridOff[n] != uint64(len(gridKeys)) {
		return nil, fmt.Errorf("georeach: grid offsets end at %d, keys hold %d", gridOff[n], len(gridKeys))
	}
	for v := 0; v < n; v++ {
		if flags[2*v] > uint8(BVertex) {
			return nil, fmt.Errorf("georeach: corrupt kind %d", flags[2*v])
		}
		lo, hi := gridOff[v], gridOff[v+1]
		if lo > hi || hi > uint64(len(gridKeys)) {
			return nil, fmt.Errorf("georeach: grid offsets not monotonic at vertex %d", v)
		}
		if Kind(flags[2*v]) != GVertex && lo != hi {
			return nil, fmt.Errorf("georeach: non-G vertex %d has %d grid keys", v, hi-lo)
		}
		for i := lo + 1; i < hi; i++ {
			if gridKeys[i-1] >= gridKeys[i] {
				return nil, fmt.Errorf("georeach: grid keys of vertex %d do not ascend", v)
			}
		}
	}
	return &Index{
		prep:     prep,
		h:        grid.NewHierarchy(meta.Space, meta.Levels),
		flags:    flags,
		rmbr:     rmbr,
		gridOff:  gridOff,
		gridKeys: gridKeys,
	}, nil
}
