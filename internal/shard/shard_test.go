package shard

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
)

func testNetwork(t *testing.T) *dataset.Network {
	t.Helper()
	return dataset.Generate(dataset.GenConfig{
		Name:        "shardtest",
		Users:       400,
		Venues:      180,
		AvgFriends:  6,
		AvgCheckins: 3,
		Regime:      dataset.Fragmented,
		Clusters:    16,
		Seed:        42,
	})
}

// checkPartition asserts the invariants every strategy must uphold:
// each venue owned by exactly one shard, social vertices unassigned,
// venue counts that sum to |P|, and bounds containing every owned
// venue's geometry.
func checkPartition(t *testing.T, net *dataset.Network, a *Assignment) {
	t.Helper()
	if len(a.ShardOf) != net.NumVertices() {
		t.Fatalf("ShardOf has %d entries for %d vertices", len(a.ShardOf), net.NumVertices())
	}
	counts := make([]int, a.NumShards)
	for v := range a.ShardOf {
		s := a.ShardOf[v]
		if !net.Spatial[v] {
			if s != -1 {
				t.Fatalf("social vertex %d assigned to shard %d", v, s)
			}
			continue
		}
		if s < 0 || int(s) >= a.NumShards {
			t.Fatalf("venue %d has out-of-range shard %d", v, s)
		}
		counts[s]++
		if !a.Shards[s].Bounds.ContainsRect(net.GeometryOf(v)) {
			t.Fatalf("venue %d outside shard %d bounds %v", v, s, a.Shards[s].Bounds)
		}
		if !a.Shards[s].Cells.Meets(grid.NewUniform(a.Space), net.GeometryOf(v)) {
			t.Fatalf("venue %d in no marked cell of shard %d", v, s)
		}
	}
	total := 0
	for i, c := range counts {
		if c != a.Shards[i].Venues {
			t.Fatalf("shard %d reports %d venues, assignment has %d", i, a.Shards[i].Venues, c)
		}
		total += c
	}
	if total != net.NumSpatial() {
		t.Fatalf("assigned %d venues, network has %d", total, net.NumSpatial())
	}
}

func TestPartitionSpatial(t *testing.T) {
	net := testNetwork(t)
	a, err := Partition(net, 4, Spatial)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, net, a)
	// Z-order runs of equal length: venue counts differ by at most one.
	lo, hi := net.NumSpatial(), 0
	for _, s := range a.Shards {
		if s.Venues < lo {
			lo = s.Venues
		}
		if s.Venues > hi {
			hi = s.Venues
		}
	}
	if hi-lo > 1 {
		t.Fatalf("spatial partition unbalanced: venue counts range %d..%d", lo, hi)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	net := testNetwork(t)
	a1, err := Partition(net, 5, Spatial)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Partition(net, 5, Spatial)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a1.ShardOf {
		if a1.ShardOf[v] != a2.ShardOf[v] {
			t.Fatalf("vertex %d assigned to %d then %d", v, a1.ShardOf[v], a2.ShardOf[v])
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	net := testNetwork(t)
	if _, err := Partition(net, 0, Spatial); err == nil {
		t.Fatal("want error for 0 shards")
	}
	if _, err := Partition(net, 2, Spatial+1); err == nil {
		t.Fatal("want error for a strategy other than Spatial")
	}
	empty := &dataset.Network{
		Name:    "novenues",
		Graph:   net.Graph,
		Spatial: make([]bool, net.NumVertices()),
		Points:  make([]geom.Point, net.NumVertices()),
	}
	if _, err := Partition(empty, 2, Spatial); err == nil {
		t.Fatal("want error for a network without venues")
	}
}

func TestShardNetwork(t *testing.T) {
	net := testNetwork(t)
	a, err := Partition(net, 3, Spatial)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, net.NumVertices())
	for i := 0; i < a.NumShards; i++ {
		sn, err := a.ShardNetwork(net, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := sn.Validate(); err != nil {
			t.Fatalf("shard %d network invalid: %v", i, err)
		}
		if sn.NumVertices() != net.NumVertices() || sn.NumEdges() != net.NumEdges() {
			t.Fatalf("shard %d graph differs: |V|=%d |E|=%d want |V|=%d |E|=%d",
				i, sn.NumVertices(), sn.NumEdges(), net.NumVertices(), net.NumEdges())
		}
		if sn.NumSpatial() != a.Shards[i].Venues {
			t.Fatalf("shard %d network has %d venues, assignment says %d", i, sn.NumSpatial(), a.Shards[i].Venues)
		}
		for v, s := range sn.Spatial {
			if s {
				if seen[v] {
					t.Fatalf("venue %d spatial on two shard networks", v)
				}
				seen[v] = true
				if sn.Points[v] != net.Points[v] {
					t.Fatalf("venue %d moved", v)
				}
			}
		}
	}
	for v, s := range net.Spatial {
		if s && !seen[v] {
			t.Fatalf("venue %d spatial on no shard network", v)
		}
	}
	if _, err := a.ShardNetwork(net, a.NumShards); err == nil {
		t.Fatal("want error for out-of-range shard id")
	}
}

func TestMapRoundTrip(t *testing.T) {
	net := testNetwork(t)
	a, err := Partition(net, 3, Spatial)
	if err != nil {
		t.Fatal(err)
	}
	m := a.Map(net.Name, net.NumVertices(), net.Space())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shardmap.json")
	if err := SaveMapFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != m.NumShards() || got.Vertices != m.Vertices || got.Strategy != m.Strategy {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	if got.Space != m.Space {
		t.Fatalf("space round trip mismatch: %v vs %v", got.Space, m.Space)
	}
	for i := range m.Shards {
		if !reflect.DeepEqual(got.Shards[i], m.Shards[i]) {
			t.Fatalf("shard %d round trip mismatch: %+v vs %+v", i, got.Shards[i], m.Shards[i])
		}
		if len(got.Shards[i].Cells) != grid.Side || got.Cells(i) != a.Shards[i].Cells {
			t.Fatalf("shard %d cells did not round trip: %v", i, got.Shards[i].Cells)
		}
	}
	// Over any space but the one the cells were gridded over, the map
	// carries none.
	other := a.Map(net.Name, net.NumVertices(), geom.NewRect(0, 0, 1, 1))
	for i, s := range other.Shards {
		if s.Cells != nil {
			t.Fatalf("shard %d carries cells gridded over another space", i)
		}
	}
}

func TestMapValidateRejects(t *testing.T) {
	base := func() *Map {
		return &Map{
			Version:  MapVersion,
			Strategy: "spatial",
			Vertices: 10,
			Space:    [4]float64{0, 0, 2, 1},
			Shards: []MapShard{
				{ID: 0, Venues: 3, Bounds: [4]float64{0, 0, 1, 1}},
				{ID: 1, Venues: 2, Bounds: [4]float64{1, 0, 2, 1}},
			},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Map)
	}{
		{"bad version", func(m *Map) { m.Version = 99 }},
		{"no shards", func(m *Map) { m.Shards = nil }},
		{"bad strategy", func(m *Map) { m.Strategy = "astral" }},
		{"social", func(m *Map) { m.Strategy = "social" }},
		{"non-dense ids", func(m *Map) { m.Shards[1].ID = 5 }},
		{"no vertices", func(m *Map) { m.Vertices = 0 }},
		{"venues with empty bounds", func(m *Map) { m.Shards[0].Bounds = [4]float64{1, 1, 0, 0} }},
		{"no venues anywhere", func(m *Map) { m.Shards[0].Venues, m.Shards[1].Venues = 0, 0 }},
		{"cells not 64 rows", func(m *Map) { m.Shards[0].Cells = cellsAt(0, 0)[:63] }},
		{"venues but no marked cell", func(m *Map) { m.Shards[0].Cells = make([]uint64, grid.Side) }},
		{"no venues but a marked cell", func(m *Map) { m.Shards[1].Venues, m.Shards[1].Cells = 0, cellsAt(40, 0) }},
		{"marked cell outside bounds", func(m *Map) { m.Shards[0].Cells = cellsAt(63, 0) }},
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base map rejected: %v", err)
	}
	withCells := base()
	withCells.Shards[0].Cells, withCells.Shards[1].Cells = cellsAt(0, 0), cellsAt(63, 63)
	if err := withCells.Validate(); err != nil {
		t.Fatalf("map with cells inside its bounds rejected: %v", err)
	}
	for _, tc := range cases {
		m := base()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, m)
		}
	}
	m := base()
	m.Strategy = "social"
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "rrgen -shards") {
		t.Errorf("a social map's error %v does not name rrgen -shards", err)
	}
}

// cellsAt returns a stored bitmap marking the one cell (x, y).
func cellsAt(x, y int) []uint64 {
	c := make([]uint64, grid.Side)
	c[y] = 1 << x
	return c
}
