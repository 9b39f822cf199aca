package shard

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/geom"
)

// MapVersion is the current shard-map format version.
const MapVersion = 1

// Map is the serialized cluster topology: everything the router tier
// needs to fan a query out — shard count, per-shard venue bounds for
// spatial pruning, and the global vertex-id space for validation. It is
// emitted by `rrgen -shards` next to the per-shard network files and
// consumed by rrrouter.
type Map struct {
	// Version is the format version (MapVersion).
	Version int `json:"version"`
	// Name labels the source network.
	Name string `json:"name"`
	// Strategy names the partitioner ("spatial" or "social").
	Strategy string `json:"strategy"`
	// Vertices is the global vertex count; every shard shares this id
	// space, so the router validates query vertices against it.
	Vertices int `json:"vertices"`
	// Space is the bounding rectangle of the whole network's venues as
	// [xmin, ymin, xmax, ymax].
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

// Map summarizes the assignment as a serializable shard map.
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
	if _, err := ParseStrategy(m.Strategy); err != nil {
		return err
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
		total += s.Venues
	}
	if total == 0 {
		return fmt.Errorf("shard: map assigns no venues to any shard")
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
