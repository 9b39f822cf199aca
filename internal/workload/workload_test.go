package workload

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

func testNetwork(t *testing.T) *dataset.Network {
	t.Helper()
	return dataset.Generate(dataset.GenConfig{
		Name: "wl", Users: 1500, Venues: 800,
		AvgFriends: 6, AvgCheckins: 3, Seed: 3,
	})
}

func TestDegreeBucketString(t *testing.T) {
	if got := (DegreeBucket{50, 99}).String(); got != "50-99" {
		t.Errorf("String = %q", got)
	}
	if got := (DegreeBucket{200, math.MaxInt32}).String(); got != "200+" {
		t.Errorf("String = %q", got)
	}
}

func TestVertexRespectsBucket(t *testing.T) {
	net := testNetwork(t)
	g := NewGenerator(net, 1)
	for _, b := range DegreeBuckets {
		for i := 0; i < 50; i++ {
			v, used := g.Vertex(b)
			if used != b {
				t.Fatalf("bucket %v fell back to %v: empty in generated network", b, used)
			}
			d := net.Graph.OutDegree(v)
			if d < b.Lo || d > b.Hi {
				t.Fatalf("vertex degree %d outside bucket %v", d, b)
			}
		}
	}
}

func TestVertexFallback(t *testing.T) {
	// A network where only tiny degrees exist: asking for 200+ must fall
	// back to a non-empty bucket instead of failing.
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}})
	net := &dataset.Network{
		Name: "tiny", Graph: g,
		Spatial: []bool{false, false, false, true},
		Points:  []geom.Point{{}, {}, {}, geom.Pt(1, 1)},
	}
	gen := NewGenerator(net, 2)
	v, used := gen.Vertex(DegreeBucket{200, math.MaxInt32})
	if used != (DegreeBucket{1, 49}) {
		t.Errorf("fell back to %v, want 1-49", used)
	}
	if d := g.OutDegree(v); d < 1 {
		t.Errorf("fallback vertex has degree %d", d)
	}

	// No out-edges at all: still returns some vertex.
	empty := &dataset.Network{
		Name:    "empty",
		Graph:   graph.FromEdges(3, nil),
		Spatial: make([]bool, 3),
		Points:  make([]geom.Point, 3),
	}
	gen = NewGenerator(empty, 3)
	if v, _ := gen.Vertex(DefaultDegreeBucket); v < 0 || v > 2 {
		t.Errorf("degenerate vertex %d", v)
	}
}

func TestRegionExtent(t *testing.T) {
	net := testNetwork(t)
	g := NewGenerator(net, 4)
	space := g.Space()
	for _, pct := range Extents {
		for i := 0; i < 30; i++ {
			r := g.Region(pct)
			if !space.ContainsRect(r) {
				t.Fatalf("region %v escapes space %v", r, space)
			}
			got := r.Area() / space.Area() * 100
			if math.Abs(got-pct) > 0.01*pct {
				t.Fatalf("region extent %.3f%%, want %g%%", got, pct)
			}
		}
	}
}

func TestRegionWithSelectivity(t *testing.T) {
	net := testNetwork(t)
	g := NewGenerator(net, 5)
	n := net.NumVertices()
	for _, sel := range Selectivities {
		target := int(float64(n) * sel / 100)
		if target < 1 {
			target = 1
		}
		for i := 0; i < 10; i++ {
			r := g.RegionWithSelectivity(sel)
			count := 0
			for v, s := range net.Spatial {
				if s && r.ContainsPoint(net.Points[v]) {
					count++
				}
			}
			// The binary search is approximate around clustered points;
			// accept a factor-3 band plus slack for tiny targets.
			if count < target {
				t.Fatalf("selectivity %g%%: region holds %d points, target %d", sel, count, target)
			}
			if count > 3*target+30 {
				t.Fatalf("selectivity %g%%: region holds %d points, target %d (too many)", sel, count, target)
			}
		}
	}
}

func TestBatches(t *testing.T) {
	net := testNetwork(t)
	g := NewGenerator(net, 6)
	qs := g.Batch(100, DefaultExtent, DefaultDegreeBucket)
	if len(qs) != 100 {
		t.Fatalf("Batch returned %d queries", len(qs))
	}
	for _, q := range qs {
		if q.Vertex < 0 || q.Vertex >= net.NumVertices() {
			t.Fatal("query vertex out of range")
		}
		if !q.Region.Valid() {
			t.Fatal("invalid region")
		}
	}
	qs = g.SelectivityBatch(20, 0.1, DefaultDegreeBucket)
	if len(qs) != 20 {
		t.Fatalf("SelectivityBatch returned %d queries", len(qs))
	}
}

func TestDeterministicWorkload(t *testing.T) {
	net := testNetwork(t)
	a := NewGenerator(net, 7).Batch(50, 5, DefaultDegreeBucket)
	b := NewGenerator(net, 7).Batch(50, 5, DefaultDegreeBucket)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
}

func TestFilteredBatch(t *testing.T) {
	net := testNetwork(t)
	g := NewGenerator(net, 9)
	// Oracle: region contains the left half of the space.
	space := g.Space()
	midX := (space.Min.X + space.Max.X) / 2
	oracle := func(q Query) bool { return q.Region.Min.X < midX }

	qs, matched := g.FilteredBatch(50, 5, DefaultDegreeBucket, true, oracle, 0)
	if len(qs) != 50 {
		t.Fatalf("got %d queries", len(qs))
	}
	if matched != 50 {
		t.Errorf("only %d/50 matched an easy predicate", matched)
	}
	for _, q := range qs {
		if !oracle(q) {
			t.Fatal("query violates predicate despite matched count")
		}
	}

	// Negative side.
	qs, matched = g.FilteredBatch(50, 5, DefaultDegreeBucket, false, oracle, 0)
	if matched != 50 {
		t.Errorf("negative side: %d/50 matched", matched)
	}
	for _, q := range qs {
		if oracle(q) {
			t.Fatal("negative query satisfies predicate")
		}
	}

	// Unsatisfiable predicate: still returns n queries, none matched.
	qs, matched = g.FilteredBatch(10, 5, DefaultDegreeBucket, true,
		func(Query) bool { return false }, 3)
	if len(qs) != 10 || matched != 0 {
		t.Errorf("unsatisfiable: %d queries, %d matched", len(qs), matched)
	}
}

func TestNoSpatialVerticesSelectivityFallback(t *testing.T) {
	net := &dataset.Network{
		Name:    "dry",
		Graph:   graph.FromEdges(3, [][2]int{{0, 1}}),
		Spatial: make([]bool, 3),
		Points:  make([]geom.Point, 3),
	}
	g := NewGenerator(net, 8)
	r := g.RegionWithSelectivity(1)
	if !r.Valid() {
		t.Error("fallback region invalid")
	}
}
