package georeach

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/grid"
)

// randomNetwork builds a random geosocial network (possibly cyclic).
func randomNetwork(rng *rand.Rand, users, venues int) *dataset.Network {
	n := users + venues
	b := graph.NewBuilder(n)
	for i := 0; i < rng.Intn(4*n)+1; i++ {
		u := rng.Intn(users)
		var t int
		if rng.Float64() < 0.4 {
			t = users + rng.Intn(venues) // check-in
		} else {
			t = rng.Intn(users)
		}
		if u != t {
			b.AddEdge(u, t)
		}
	}
	net := &dataset.Network{
		Name:    "random",
		Graph:   b.Build(),
		Spatial: make([]bool, n),
		Points:  make([]geom.Point, n),
	}
	for v := users; v < n; v++ {
		net.Spatial[v] = true
		net.Points[v] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	return net
}

func randomRegion(rng *rand.Rand) geom.Rect {
	x := rng.Float64() * 100
	y := rng.Float64() * 100
	return geom.NewRect(x, y, x+rng.Float64()*40, y+rng.Float64()*40)
}

// naive answers RangeReach by BFS.
func naive(net *dataset.Network, v int, r geom.Rect) bool {
	found := false
	net.Graph.BFS(v, func(u int) bool {
		if net.Spatial[u] && r.ContainsPoint(net.Points[u]) {
			found = true
			return false
		}
		return true
	})
	return found
}

func TestGeoReachAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		net := randomNetwork(rng, 2+rng.Intn(25), 1+rng.Intn(20))
		prep := dataset.Prepare(net)
		// Stress different parameterizations, including degenerate ones
		// that force heavy downgrading.
		params := []Params{
			{},
			{MaxReachGrids: 1, MergeCount: 1, Levels: 3},
			{MaxRMBRFraction: 0.01, MaxReachGrids: 2, Levels: 5},
			{MaxReachGrids: 1000, MergeCount: 100, Levels: 10},
		}
		idx := Build(prep, params[trial%len(params)])
		for q := 0; q < 30; q++ {
			v := rng.Intn(net.NumVertices())
			r := randomRegion(rng)
			want := naive(net, v, r)
			if got := idx.RangeReach(v, r); got != want {
				t.Fatalf("trial %d: RangeReach(%d, %v) = %v, want %v",
					trial, v, r, got, want)
			}
		}
	}
}

func TestClassificationDowngrades(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	net := randomNetwork(rng, 30, 30)
	prep := dataset.Prepare(net)

	// With generous limits most spatial-reaching vertices stay G.
	loose := Build(prep, Params{MaxReachGrids: 10000, MergeCount: 10000})
	g1, r1, _ := loose.CountKinds()
	if g1 == 0 {
		t.Error("loose params produced no G-vertices")
	}
	if r1 != 0 {
		t.Errorf("loose params produced %d R-vertices", r1)
	}

	// With MaxReachGrids = 0-ish everything downgrades to R or B.
	tight := Build(prep, Params{MaxReachGrids: 1, MergeCount: 1, Levels: 2})
	g2, _, _ := tight.CountKinds()
	if g2 > g1 {
		t.Error("tight params produced more G-vertices than loose")
	}
}

func TestSpatialVertexSelfQuery(t *testing.T) {
	// A query from a spatial vertex inside the region is TRUE even with
	// no edges at all.
	net := &dataset.Network{
		Name:    "self",
		Graph:   graph.FromEdges(1, nil),
		Spatial: []bool{true},
		Points:  []geom.Point{geom.Pt(5, 5)},
	}
	idx := Build(dataset.Prepare(net), Params{})
	if !idx.RangeReach(0, geom.NewRect(0, 0, 10, 10)) {
		t.Error("self query failed")
	}
	if idx.RangeReach(0, geom.NewRect(6, 6, 10, 10)) {
		t.Error("self query false positive")
	}
}

func TestNoSpatialNetwork(t *testing.T) {
	// A network with zero spatial vertices: every query is FALSE and
	// every vertex is a B-vertex with GeoB false.
	net := &dataset.Network{
		Name:    "dry",
		Graph:   graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		Spatial: make([]bool, 4),
		Points:  make([]geom.Point, 4),
	}
	idx := Build(dataset.Prepare(net), Params{})
	g, r, b := idx.CountKinds()
	if g != 0 || r != 0 || b != 4 {
		t.Errorf("kinds = %d/%d/%d, want 0/0/4", g, r, b)
	}
	if idx.RangeReach(0, geom.NewRect(-1e9, -1e9, 1e9, 1e9)) {
		t.Error("spatial-free network answered TRUE")
	}
	if idx.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
}

func TestPaperExample26(t *testing.T) {
	// Figure 1/Example 2.6 semantics: from a the answer is TRUE, from c
	// FALSE, with e and h inside R. Reconstruct the network with
	// venue coordinates placing e, h inside R = [60,90]x[55,95] and the
	// rest outside.
	edges := [][2]int{
		{0, 1}, {0, 3}, {0, 9}, // a->b, a->d, a->j
		{1, 4}, {1, 11}, {1, 3}, // b->e, b->l, b->d
		{2, 8}, {2, 10}, {2, 3}, // c->i, c->k, c->d
		{4, 5},  // e->f
		{6, 8},  // g->i
		{8, 5},  // i->f
		{9, 6},  // j->g
		{9, 7},  // j->h
		{11, 7}, // l->h
	}
	g := graph.FromEdges(12, edges)
	spatial := make([]bool, 12)
	points := make([]geom.Point, 12)
	// Spatial vertices in Figure 1: e, f, h, i, l (venues with points).
	set := func(v int, x, y float64) {
		spatial[v] = true
		points[v] = geom.Pt(x, y)
	}
	set(4, 70, 80)  // e: inside R
	set(7, 80, 60)  // h: inside R
	set(5, 10, 10)  // f: outside
	set(8, 20, 90)  // i: outside
	set(11, 40, 20) // l: outside
	net := &dataset.Network{Name: "figure1", Graph: g, Spatial: spatial, Points: points}
	idx := Build(dataset.Prepare(net), Params{Levels: 4})
	r := geom.NewRect(60, 55, 90, 95)
	if !idx.RangeReach(0, r) {
		t.Error("RangeReach(G, a, R) = FALSE, want TRUE")
	}
	if idx.RangeReach(2, r) {
		t.Error("RangeReach(G, c, R) = TRUE, want FALSE")
	}
}

// TestIntersectsRect pins the two signals of the G-vertex rule on a
// hand-made ReachGrid.
func TestIntersectsRect(t *testing.T) {
	idx := &Index{
		h:       grid.NewHierarchy(geom.NewRect(0, 0, 100, 100), 4), // level 0 cell = 12.5x12.5
		gridOff: []uint64{0, 2},
		gridKeys: []uint64{
			grid.Cell{Level: 0, X: 0, Y: 0}.Key(), // [0,12.5]x[0,12.5]
			grid.Cell{Level: 0, X: 7, Y: 7}.Key(), // [87.5,100]^2
		},
	}
	inter, cont := idx.cellsIntersect(0, geom.NewRect(40, 40, 60, 60))
	if inter || cont {
		t.Error("disjoint region reported intersecting")
	}
	inter, cont = idx.cellsIntersect(0, geom.NewRect(10, 10, 60, 60))
	if !inter || cont {
		t.Error("partial overlap misreported")
	}
	inter, cont = idx.cellsIntersect(0, geom.NewRect(-1, -1, 50, 50))
	if !inter || !cont {
		t.Error("containing region misreported")
	}
}
