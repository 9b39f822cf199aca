package shard

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
)

// MapVersion is the current shard-map format version.
const MapVersion = 1

// Map is the serialized cluster topology: everything the router tier
// needs to fan a query out — shard count, per-shard venue bounds and
// occupancy cells for spatial pruning, and the global vertex-id space
// for validation. It is emitted by `rrgen -shards` next to the
// per-shard network files and consumed by rrrouter.
type Map struct {
	// Version is the format version (MapVersion).
	Version int `json:"version"`
	// Name labels the source network.
	Name string `json:"name"`
	// Strategy names the partitioner; "spatial" is the only one.
	Strategy string `json:"strategy"`
	// Vertices is the global vertex count; every shard shares this id
	// space, so the router validates query vertices against it.
	Vertices int `json:"vertices"`
	// Space is the bounding rectangle of the whole network's venues as
	// [xmin, ymin, xmax, ymax]; the shards' cells are gridded over it.
	Space [4]float64 `json:"space"`
	// Shards lists every shard, ordered by id 0..n-1.
	Shards []MapShard `json:"shards"`
}

// MapShard is one shard's entry in the Map.
type MapShard struct {
	// ID is the shard id; rrrouter serves it on its ID-th backend.
	ID int `json:"id"`
	// Venues counts the spatial vertices owned by the shard.
	Venues int `json:"venues"`
	// Bounds is the MBR of the shard's venue geometries as
	// [xmin, ymin, xmax, ymax]. A shard with no venues carries an
	// inverted (empty) rectangle and is never consulted.
	Bounds [4]float64 `json:"bounds"`
	// Cells is the shard's occupancy bitmap over grid.Uniform(Space),
	// one uint64 per row (grid.Bitmap): bit x of row y is set when one
	// of the shard's venue geometries meets cell (x, y). Absent means
	// derived from Bounds: every cell the bounds cover, which prunes
	// exactly as the bounds do.
	Cells []uint64 `json:"cells,omitempty"`
}

// BoundsRect returns the shard's bounds as a geom.Rect without
// normalizing: an inverted on-disk rectangle stays empty.
func (s MapShard) BoundsRect() geom.Rect {
	return geom.Rect{
		Min: geom.Pt(s.Bounds[0], s.Bounds[1]),
		Max: geom.Pt(s.Bounds[2], s.Bounds[3]),
	}
}

// NumShards returns the shard count.
func (m *Map) NumShards() int { return len(m.Shards) }

// Grid returns the grid the shards' cells are read over: grid.Uniform
// over Space, without normalizing it.
func (m *Map) Grid() grid.Uniform {
	return grid.NewUniform(geom.Rect{
		Min: geom.Pt(m.Space[0], m.Space[1]),
		Max: geom.Pt(m.Space[2], m.Space[3]),
	})
}

// Cells returns shard i's occupancy bitmap: the stored one, or, for a
// shard written without cells, every cell its bounds cover.
func (m *Map) Cells(i int) grid.Bitmap {
	var b grid.Bitmap
	if s := m.Shards[i]; len(s.Cells) == grid.Side {
		copy(b[:], s.Cells)
	} else {
		b.Mark(m.Grid(), s.BoundsRect())
	}
	return b
}

// Map summarizes the assignment as a serializable shard map. The cells
// are written only when space is the assignment's Space, the space they
// were gridded over; over any other space the map carries none, and its
// reader derives them from the bounds.
func (a *Assignment) Map(name string, vertices int, space geom.Rect) *Map {
	m := &Map{
		Version:  MapVersion,
		Name:     name,
		Strategy: a.Strategy.String(),
		Vertices: vertices,
		Space:    [4]float64{space.Min.X, space.Min.Y, space.Max.X, space.Max.Y},
		Shards:   make([]MapShard, a.NumShards),
	}
	for i, info := range a.Shards {
		m.Shards[i] = MapShard{
			ID:     info.ID,
			Venues: info.Venues,
			Bounds: [4]float64{info.Bounds.Min.X, info.Bounds.Min.Y, info.Bounds.Max.X, info.Bounds.Max.Y},
		}
		if space == a.Space {
			m.Shards[i].Cells = slices.Clone(info.Cells[:])
		}
	}
	return m
}

// Validate checks structural consistency and returns the first problem
// found, or nil.
func (m *Map) Validate() error {
	if m.Version != MapVersion {
		return fmt.Errorf("shard: unsupported map version %d (want %d)", m.Version, MapVersion)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: map has no shards")
	}
	if m.Vertices <= 0 {
		return fmt.Errorf("shard: map reports %d vertices", m.Vertices)
	}
	if m.Strategy != Spatial.String() {
		return fmt.Errorf("shard: map strategy %q is not spatial; regenerate the map with rrgen -shards", m.Strategy)
	}
	total := 0
	for i, s := range m.Shards {
		if s.ID != i {
			return fmt.Errorf("shard: shard at position %d has id %d (ids must be dense 0..n-1)", i, s.ID)
		}
		if s.Venues < 0 {
			return fmt.Errorf("shard: shard %d has negative venue count %d", i, s.Venues)
		}
		if s.Venues > 0 && s.BoundsRect().IsEmpty() {
			return fmt.Errorf("shard: shard %d holds %d venues but empty bounds", i, s.Venues)
		}
		if err := m.validateCells(i); err != nil {
			return err
		}
		total += s.Venues
	}
	if total == 0 {
		return fmt.Errorf("shard: map assigns no venues to any shard")
	}
	return nil
}

// validateCells checks shard i's stored cells, if any: Side rows,
// marked iff the shard holds venues, and only where its bounds reach.
func (m *Map) validateCells(i int) error {
	s := m.Shards[i]
	if s.Cells == nil {
		return nil
	}
	if len(s.Cells) != grid.Side {
		return fmt.Errorf("shard: shard %d has %d cell rows (want %d)", i, len(s.Cells), grid.Side)
	}
	cells := m.Cells(i)
	switch {
	case s.Venues > 0 && cells.Empty():
		return fmt.Errorf("shard: shard %d holds %d venues but marks no cell", i, s.Venues)
	case s.Venues == 0 && !cells.Empty():
		return fmt.Errorf("shard: shard %d holds no venues but marks cells", i)
	}
	var reach grid.Bitmap
	reach.Mark(m.Grid(), s.BoundsRect())
	for y, row := range cells {
		if extra := row &^ reach[y]; extra != 0 {
			return fmt.Errorf("shard: shard %d marks cell (%d, %d) outside its bounds %v", i, bits.TrailingZeros64(extra), y, s.Bounds)
		}
	}
	return nil
}

// SaveMapFile writes m as indented JSON to path.
func SaveMapFile(path string, m *Map) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding map: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// LoadMapFile reads and validates a shard map.
func LoadMapFile(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %s: %w", path, err)
	}
	return &m, nil
}
