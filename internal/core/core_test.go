package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// randomNetwork builds a random geosocial network, optionally cyclic.
func randomNetwork(rng *rand.Rand, users, venues int, cyclic bool) *dataset.Network {
	n := users + venues
	b := graph.NewBuilder(n)
	perm := rng.Perm(users)
	for i := 0; i < rng.Intn(4*n)+n/2; i++ {
		u := rng.Intn(users)
		var t int
		if rng.Float64() < 0.4 {
			t = users + rng.Intn(venues)
		} else {
			t = rng.Intn(users)
			if !cyclic && perm[u] > perm[t] {
				u, t = t, u
			}
		}
		if u != t {
			b.AddEdge(u, t)
		}
	}
	if cyclic && users >= 3 {
		// Force at least one non-trivial SCC, sometimes spatial.
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		b.AddEdge(2, 0)
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

// spatialCycleNetwork puts spatial vertices inside SCCs, exercising the
// paper's §5 replication where super-vertices own several points.
func spatialCycleNetwork(rng *rand.Rand, n int) *dataset.Network {
	b := graph.NewBuilder(n)
	// A few rings plus random chords.
	for start := 0; start+3 < n; start += 3 + rng.Intn(3) {
		size := 2 + rng.Intn(3)
		if start+size > n {
			size = n - start
		}
		for j := 0; j < size; j++ {
			b.AddEdge(start+j, start+(j+1)%size)
		}
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	net := &dataset.Network{
		Name:    "spatial-cycles",
		Graph:   b.Build(),
		Spatial: make([]bool, n),
		Points:  make([]geom.Point, n),
	}
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.5 {
			net.Spatial[v] = true
			net.Points[v] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
	}
	return net
}

func randomRegion(rng *rand.Rand) geom.Rect {
	x := rng.Float64() * 100
	y := rng.Float64() * 100
	return geom.NewRect(x, y, x+rng.Float64()*50, y+rng.Float64()*50)
}

// buildAll constructs every method's engine.
func buildAll(t *testing.T, prep *dataset.Prepared) []Engine {
	t.Helper()
	var engines []Engine
	for _, m := range AllMethods {
		res, err := BuildMethod(prep, m, BuildOptions{})
		if err != nil {
			t.Fatalf("BuildMethod(%v): %v", m, err)
		}
		engines = append(engines, res.Engine)
	}
	return engines
}

func TestAllEnginesAgreeWithGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 25; trial++ {
		var net *dataset.Network
		switch trial % 3 {
		case 0:
			net = randomNetwork(rng, 3+rng.Intn(20), 1+rng.Intn(15), true)
		case 1:
			net = randomNetwork(rng, 3+rng.Intn(20), 1+rng.Intn(15), false)
		default:
			net = spatialCycleNetwork(rng, 5+rng.Intn(25))
		}
		prep := dataset.Prepare(net)
		truth := NewNaiveBFS(net)
		engines := buildAll(t, prep)
		for q := 0; q < 25; q++ {
			v := rng.Intn(net.NumVertices())
			r := randomRegion(rng)
			want := truth.RangeReach(v, r)
			for _, e := range engines {
				if got := e.RangeReach(v, r); got != want {
					t.Fatalf("trial %d: %s(%d, %v) = %v, want %v (network %s)",
						trial, e.Name(), v, r, got, want, net.Name)
				}
			}
		}
	}
}

func TestEnginesOnPaperExample(t *testing.T) {
	// Figure 1 with concrete coordinates; Example 2.3: a reaches R, c
	// does not.
	edges := [][2]int{
		{0, 1}, {0, 3}, {0, 9},
		{1, 4}, {1, 11}, {1, 3},
		{2, 8}, {2, 10}, {2, 3},
		{4, 5}, {6, 8}, {8, 5}, {9, 6}, {9, 7}, {11, 7},
	}
	g := graph.FromEdges(12, edges)
	spatial := make([]bool, 12)
	points := make([]geom.Point, 12)
	set := func(v int, x, y float64) { spatial[v] = true; points[v] = geom.Pt(x, y) }
	set(4, 70, 80)
	set(7, 80, 60)
	set(5, 10, 10)
	set(8, 20, 90)
	set(11, 40, 20)
	net := &dataset.Network{Name: "figure1", Graph: g, Spatial: spatial, Points: points}
	prep := dataset.Prepare(net)
	r := geom.NewRect(60, 55, 90, 95)
	for _, e := range buildAll(t, prep) {
		if !e.RangeReach(0, r) {
			t.Errorf("%s: RangeReach(a, R) = FALSE, want TRUE", e.Name())
		}
		if e.RangeReach(2, r) {
			t.Errorf("%s: RangeReach(c, R) = TRUE, want FALSE", e.Name())
		}
	}
}

func TestEngineEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	net := randomNetwork(rng, 10, 8, true)
	prep := dataset.Prepare(net)
	truth := NewNaiveBFS(net)
	engines := buildAll(t, prep)

	cases := []geom.Rect{
		geom.NewRect(-1e9, -1e9, 1e9, 1e9), // everything
		geom.NewRect(200, 200, 300, 300),   // empty region
		geom.RectFromPoint(net.Points[10]), // degenerate point region
		geom.NewRect(0, 0, 0.0001, 0.0001), // tiny corner
		geom.NewRect(-50, 40, 150, 41),     // thin slab
	}
	for _, r := range cases {
		for v := 0; v < net.NumVertices(); v++ {
			want := truth.RangeReach(v, r)
			for _, e := range engines {
				if got := e.RangeReach(v, r); got != want {
					t.Fatalf("%s(%d, %v) = %v, want %v", e.Name(), v, r, got, want)
				}
			}
		}
	}
}

func TestStreamingSpaReachAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(821))
	for trial := 0; trial < 10; trial++ {
		net := randomNetwork(rng, 5+rng.Intn(20), 2+rng.Intn(15), true)
		prep := dataset.Prepare(net)
		truth := NewNaiveBFS(net)
		faithful := NewSpaReachBFL(prep, BuildOptions{})
		streaming := NewSpaReachBFL(prep, BuildOptions{SpaReach: SpaReachOptions{Streaming: true}})
		for q := 0; q < 25; q++ {
			v := rng.Intn(net.NumVertices())
			r := randomRegion(rng)
			want := truth.RangeReach(v, r)
			if faithful.RangeReach(v, r) != want || streaming.RangeReach(v, r) != want {
				t.Fatalf("trial %d: variants disagree at v=%d", trial, v)
			}
		}
	}
}

func TestBuildMethodErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	prep := dataset.Prepare(randomNetwork(rng, 5, 5, false))
	if _, err := BuildMethod(prep, Method(99), BuildOptions{}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestBuildResultsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	prep := dataset.Prepare(randomNetwork(rng, 30, 20, true))
	for _, m := range AllMethods {
		res, err := BuildMethod(prep, m, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine == nil || res.Method != m {
			t.Errorf("%v: result incomplete", m)
		}
		if res.Bytes <= 0 {
			t.Errorf("%v: Bytes = %d", m, res.Bytes)
		}
		if res.Engine.Name() != m.String() {
			t.Errorf("engine name %q != method name %q", res.Engine.Name(), m)
		}
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		MethodSpaReachBFL:    "SpaReach-BFL",
		MethodSpaReachINT:    "SpaReach-INT",
		MethodGeoReach:       "GeoReach",
		MethodSocReach:       "SocReach",
		MethodThreeDReach:    "3DReach",
		MethodThreeDReachRev: "3DReach-Rev",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Method(42).String() == "" {
		t.Error("unknown method String empty")
	}
}
