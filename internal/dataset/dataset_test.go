package dataset

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

// tinyNetwork builds a small hand-made network: users 0-2, venues 3-4.
func tinyNetwork() *Network {
	g := graph.FromEdges(5, [][2]int{
		{0, 1}, {1, 0}, // user SCC
		{1, 2},
		{0, 3}, {2, 4}, // check-ins
	})
	net := &Network{
		Name:    "tiny",
		Graph:   g,
		Spatial: []bool{false, false, false, true, true},
		Points:  make([]geom.Point, 5),
	}
	net.Points[3] = geom.Pt(10, 10)
	net.Points[4] = geom.Pt(90, 90)
	net.Checkins = 2
	return net
}

func TestNetworkBasics(t *testing.T) {
	net := tinyNetwork()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if net.NumVertices() != 5 || net.NumSpatial() != 2 || net.NumUsers() != 3 {
		t.Error("counts wrong")
	}
	space := net.Space()
	if space != geom.NewRect(10, 10, 90, 90) {
		t.Errorf("Space = %v", space)
	}
}

func TestValidateRejectsInconsistent(t *testing.T) {
	net := tinyNetwork()
	net.Spatial = net.Spatial[:3]
	if net.Validate() == nil {
		t.Error("short Spatial accepted")
	}
	net = tinyNetwork()
	net.Points = nil
	if net.Validate() == nil {
		t.Error("nil Points accepted")
	}
	if (&Network{}).Validate() == nil {
		t.Error("nil graph accepted")
	}
}

func TestComputeStats(t *testing.T) {
	s := tinyNetwork().ComputeStats()
	if s.Users != 3 || s.Venues != 2 || s.Checkins != 2 {
		t.Errorf("stats: %+v", s)
	}
	if s.SCCs != 4 { // {0,1}, {2}, {3}, {4}
		t.Errorf("SCCs = %d, want 4", s.SCCs)
	}
	if s.LargestSCC != 2 {
		t.Errorf("LargestSCC = %d, want 2", s.LargestSCC)
	}
}

func TestPrepare(t *testing.T) {
	net := tinyNetwork()
	p := Prepare(net)
	if p.NumComponents() != 4 {
		t.Fatalf("NumComponents = %d", p.NumComponents())
	}
	if p.CompOf(0) != p.CompOf(1) || p.CompOf(0) == p.CompOf(2) {
		t.Error("component assignment wrong")
	}
	// The venue components carry their points; the user components none.
	c3, c4 := p.CompOf(3), p.CompOf(4)
	if !p.HasSpatial[c3] || !p.HasSpatial[c4] {
		t.Error("venue components lack spatial members")
	}
	if p.HasSpatial[p.CompOf(0)] {
		t.Error("user SCC has spatial members")
	}
	if !p.DAG.IsDAG() {
		t.Error("prepared graph not a DAG")
	}
}

// TestWithUserPoints pins WithUserPoints' rule: share 0 changes no
// vertex, share 1 places every user who checks in at the point of a
// venue it checks into and no one else, the same seed draws the same
// copy, and the input network is left as it was.
func TestWithUserPoints(t *testing.T) {
	net := GowallaLike(0.02, 1)
	before := slices.Clone(net.Spatial)
	if got := WithUserPoints(net, 0, 1); !slices.Equal(got.Spatial, net.Spatial) || !slices.Equal(got.Points, net.Points) {
		t.Error("share 0 changed the network")
	}
	all := WithUserPoints(net, 1, 1)
	for u := range net.NumVertices() {
		if net.Spatial[u] {
			continue
		}
		var venues []geom.Point
		for _, v := range net.Graph.Out(u) {
			if net.Spatial[v] {
				venues = append(venues, net.Points[v])
			}
		}
		if all.Spatial[u] != (len(venues) > 0) || all.Spatial[u] && !slices.Contains(venues, all.Points[u]) {
			t.Fatalf("user %d: spatial %v at %v, checks into %v", u, all.Spatial[u], all.Points[u], venues)
		}
	}
	a, b := WithUserPoints(net, 0.3, 7), WithUserPoints(net, 0.3, 7)
	if !slices.Equal(a.Spatial, b.Spatial) || !slices.Equal(a.Points, b.Points) || a.NumSpatial() == net.NumSpatial() || a.NumSpatial() == all.NumSpatial() {
		t.Errorf("share 0.3: %d and %d spatial vertices, between %d and %d expected", a.NumSpatial(), b.NumSpatial(), net.NumSpatial(), all.NumSpatial())
	}
	if !slices.Equal(net.Spatial, before) {
		t.Error("WithUserPoints modified its input")
	}
}

func TestPrepareSpatialSCC(t *testing.T) {
	// A cycle that includes two spatial vertices among two users: its
	// member run lists the spatial members first, each part ascending.
	g := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	net := &Network{
		Name:    "spatial-scc",
		Graph:   g,
		Spatial: []bool{false, true, false, true},
		Points:  []geom.Point{{}, geom.Pt(0, 0), {}, geom.Pt(4, 2)},
	}
	p := Prepare(net)
	if p.NumComponents() != 1 {
		t.Fatalf("NumComponents = %d", p.NumComponents())
	}
	if got := p.SpatialMembers(0); !slices.Equal(got, []int32{1, 3}) {
		t.Errorf("SpatialMembers = %v, want [1 3]", got)
	}
	if got := p.Members(0); !slices.Equal(got, []int32{1, 3, 0, 2}) {
		t.Errorf("Members = %v, want [1 3 0 2]", got)
	}
}

// TestPrepareAllocsCostIndependent is the count guard of the member
// columns: Prepare allocates the same number of times for 1k and for
// 64k components. Each network is users that each check into one venue
// of their own, and users on a few cycles of four, two venues each;
// the DFS stays shallow, so Tarjan's stacks do not grow with it either.
func TestPrepareAllocsCostIndependent(t *testing.T) {
	prepareAllocs := func(comps int) float64 {
		pairs := comps / 2
		n := 2*pairs + 4*8
		var edges [][2]int
		spatial := make([]bool, n)
		for i := 0; i < pairs; i++ {
			edges = append(edges, [2]int{2 * i, 2*i + 1})
			spatial[2*i+1] = true
		}
		for k := 0; k < 8; k++ {
			base := 2*pairs + 4*k
			for j := 0; j < 4; j++ {
				edges = append(edges, [2]int{base + j, base + (j+1)%4})
			}
			spatial[base+1], spatial[base+2] = true, true
		}
		net := &Network{Name: "pairs", Graph: graph.FromEdges(n, edges), Spatial: spatial, Points: make([]geom.Point, n)}
		return testing.AllocsPerRun(5, func() { Prepare(net) })
	}
	small, large := prepareAllocs(1<<10), prepareAllocs(1<<16)
	if small != large {
		t.Fatalf("Prepare allocates %v times for 1k components and %v for 64k", small, large)
	}
	t.Logf("%v allocations at either size", small)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := Generate(GenConfig{Name: "rt test", Users: 50, Venues: 30, AvgFriends: 3, AvgCheckins: 2, Seed: 5})
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != net.Name || got.Checkins != net.Checkins {
		t.Error("metadata lost")
	}
	if got.NumVertices() != net.NumVertices() || got.NumEdges() != net.NumEdges() {
		t.Fatal("sizes changed")
	}
	for v := 0; v < net.NumVertices(); v++ {
		if got.Spatial[v] != net.Spatial[v] {
			t.Fatalf("Spatial[%d] changed", v)
		}
		if net.Spatial[v] && got.Points[v] != net.Points[v] {
			t.Fatalf("Points[%d] changed", v)
		}
	}
	net.Graph.Edges(func(u, v int) {
		if !got.Graph.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost", u, v)
		}
	})
}

func TestSaveLoadFile(t *testing.T) {
	net := Generate(GenConfig{Name: "file", Users: 10, Venues: 5, AvgFriends: 2, AvgCheckins: 1, Seed: 9})
	path := t.TempDir() + "/net.txt"
	if err := SaveFile(path, net); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != net.NumVertices() {
		t.Error("file round trip lost vertices")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestExtendedGeometries(t *testing.T) {
	net := tinyNetwork()
	net.Extents = make([]geom.Rect, 5)
	net.Extents[3] = geom.NewRect(5, 5, 15, 20)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if !net.HasExtents() {
		t.Error("HasExtents false with one extent set")
	}
	if got := net.GeometryOf(3); got != geom.NewRect(5, 5, 15, 20) {
		t.Errorf("GeometryOf(3) = %v", got)
	}
	if got := net.GeometryOf(4); got != geom.RectFromPoint(geom.Pt(90, 90)) {
		t.Errorf("GeometryOf(4) = %v", got)
	}
	// Space covers the extent, not just the points.
	if s := net.Space(); !s.ContainsRect(geom.NewRect(5, 5, 15, 20)) {
		t.Errorf("Space %v misses the extent", s)
	}
	// Prepared witness semantics.
	p := Prepare(net)
	if !p.Witness(3, geom.NewRect(14, 18, 30, 30)) {
		t.Error("intersecting region not a witness")
	}
	if p.Witness(3, geom.NewRect(16, 21, 30, 30)) {
		t.Error("disjoint region is a witness")
	}
	if !p.Witness(4, geom.NewRect(80, 80, 95, 95)) {
		t.Error("point witness broken")
	}

	// Validation failures.
	net.Extents[0] = geom.NewRect(1, 1, 2, 2) // non-spatial vertex
	if net.Validate() == nil {
		t.Error("extent on social vertex accepted")
	}
	net.Extents[0] = geom.Rect{}
	net.Extents = net.Extents[:2]
	if net.Validate() == nil {
		t.Error("short Extents accepted")
	}
}

func TestSaveLoadExtents(t *testing.T) {
	net := tinyNetwork()
	net.Extents = make([]geom.Rect, 5)
	net.Extents[4] = geom.NewRect(80, 80, 99, 95)
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.GeometryOf(4) != geom.NewRect(80, 80, 99, 95) {
		t.Errorf("extent lost: %v", got.GeometryOf(4))
	}
	if got.GeometryOf(3) != geom.RectFromPoint(geom.Pt(10, 10)) {
		t.Error("point vertex corrupted")
	}
	if got.Points[4] != geom.Pt(89.5, 87.5) {
		t.Errorf("center = %v", got.Points[4])
	}
}

func TestLoadGeometryDirectiveErrors(t *testing.T) {
	cases := map[string]string{
		"g-before-vertices": "geosocial 1\ng 0 1 2 3 4\n",
		"g-short":           "geosocial 1\nvertices 2\ng 0 1 2 3\n",
		"g-oob":             "geosocial 1\nvertices 2\ng 9 1 2 3 4\n",
		"g-bad-coords":      "geosocial 1\nvertices 2\ng 0 a b c d\n",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(input)); err == nil {
				t.Error("malformed input accepted")
			}
		})
	}
}

func TestLoadRejectsMalformedInput(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"bad-header":        "geosocial 2\nvertices 1\n",
		"p-before-vertices": "geosocial 1\np 0 1 2\n",
		"e-before-vertices": "geosocial 1\ne 0 1\n",
		"vertex-oob":        "geosocial 1\nvertices 2\np 5 1 2\n",
		"edge-oob":          "geosocial 1\nvertices 2\ne 0 7\n",
		"bad-coords":        "geosocial 1\nvertices 2\np 0 x y\n",
		"bad-int":           "geosocial 1\nvertices two\n",
		"short-p":           "geosocial 1\nvertices 2\np 0 1\n",
		"short-e":           "geosocial 1\nvertices 2\ne 0\n",
		"unknown":           "geosocial 1\nvertices 2\nq 1 2\n",
		"no-vertices":       "geosocial 1\nname x\n",
		"negative-count":    "geosocial 1\nvertices -4\n",
		"huge-count":        "geosocial 1\nvertices 9223372036854775807\n",
		"name-no-value":     "geosocial 1\nname\nvertices 1\n",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(input)); err == nil {
				t.Errorf("malformed input accepted: %q", input)
			}
		})
	}
}

func TestLoadAcceptsCommentsAndBlankLines(t *testing.T) {
	input := `
# a comment
geosocial 1

name demo net
vertices 3
# the venue
p 2 1.5 2.5
e 0 1
e 1 2
`
	net, err := Load(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if net.Name != "demo net" || net.NumVertices() != 3 || !net.Spatial[2] {
		t.Errorf("parsed network wrong: %+v", net)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Users: 100, Venues: 50, AvgFriends: 4, AvgCheckins: 3, Seed: 42})
	b := Generate(GenConfig{Users: 100, Venues: 50, AvgFriends: 4, AvgCheckins: 3, Seed: 42})
	if a.NumEdges() != b.NumEdges() || a.Checkins != b.Checkins {
		t.Error("same seed, different network")
	}
	c := Generate(GenConfig{Users: 100, Venues: 50, AvgFriends: 4, AvgCheckins: 3, Seed: 43})
	if a.NumEdges() == c.NumEdges() && a.Checkins == c.Checkins {
		t.Log("different seeds produced equal counts (possible but unlikely)")
	}
}

func TestGenerateGiantSCCRegime(t *testing.T) {
	net := Generate(GenConfig{Users: 200, Venues: 100, AvgFriends: 3, AvgCheckins: 2, Regime: GiantSCC, Seed: 7})
	stats := net.ComputeStats()
	if stats.LargestSCC != 200 {
		t.Errorf("giant regime: largest SCC %d, want all 200 users", stats.LargestSCC)
	}
	// Venues are sinks: every SCC beyond the giant one is a singleton.
	if stats.SCCs != 101 {
		t.Errorf("SCCs = %d, want 101", stats.SCCs)
	}
}

func TestGenerateFragmentedRegime(t *testing.T) {
	net := Generate(GenConfig{
		Users: 400, Venues: 100, AvgFriends: 3, AvgCheckins: 2,
		Regime: Fragmented, CoreFraction: 0.5, Seed: 11,
	})
	stats := net.ComputeStats()
	if stats.LargestSCC < 200 || stats.LargestSCC > 260 {
		t.Errorf("core SCC size %d, want ≈200", stats.LargestSCC)
	}
	if stats.SCCs < 150 {
		t.Errorf("too few SCCs (%d) for a fragmented network", stats.SCCs)
	}
}

func TestGenerateDegreeBucketsPopulated(t *testing.T) {
	net := Generate(GenConfig{Users: 2000, Venues: 500, AvgFriends: 6, AvgCheckins: 3, Seed: 13})
	buckets := make(map[int]int)
	for v := 0; v < 2000; v++ {
		d := net.Graph.OutDegree(v)
		switch {
		case d >= 200:
			buckets[200]++
		case d >= 150:
			buckets[150]++
		case d >= 100:
			buckets[100]++
		case d >= 50:
			buckets[50]++
		case d >= 1:
			buckets[1]++
		}
	}
	for _, lo := range []int{1, 50, 100, 150, 200} {
		if buckets[lo] == 0 {
			t.Errorf("degree bucket %d+ empty", lo)
		}
	}
}

func TestGeneratePointsInsideSpace(t *testing.T) {
	net := Generate(GenConfig{Users: 50, Venues: 500, AvgFriends: 2, AvgCheckins: 2, Seed: 17})
	space := geom.NewRect(0, 0, 100, 100)
	for v, s := range net.Spatial {
		if s && !space.ContainsPoint(net.Points[v]) {
			t.Fatalf("venue point %v outside space", net.Points[v])
		}
	}
}

func TestGeneratePanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Generate(GenConfig{Users: 0, Venues: 10})
}

func TestPresetsStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("preset generation in -short mode")
	}
	nets := Presets(0.1, 1)
	if len(nets) != 4 {
		t.Fatalf("Presets returned %d networks", len(nets))
	}
	byName := map[string]Stats{}
	for _, n := range nets {
		if err := n.Validate(); err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		byName[n.Name] = n.ComputeStats()
	}
	// Giant-SCC regimes: all users in the largest SCC.
	for _, name := range []string{"gowalla-like", "weeplaces-like"} {
		s := byName[name]
		if s.LargestSCC != s.Users {
			t.Errorf("%s: largest SCC %d != users %d", name, s.LargestSCC, s.Users)
		}
	}
	// Fragmented regimes: strictly between.
	for _, name := range []string{"foursquare-like", "yelp-like"} {
		s := byName[name]
		if s.LargestSCC >= s.Users || s.LargestSCC < s.Users/4 {
			t.Errorf("%s: largest SCC %d of %d users out of regime", name, s.LargestSCC, s.Users)
		}
	}
	// Venue-heavy vs user-heavy calibration.
	if g := byName["gowalla-like"]; g.Venues <= g.Users {
		t.Error("gowalla-like should be venue-heavy")
	}
	if y := byName["yelp-like"]; y.Users <= y.Venues {
		t.Error("yelp-like should be user-heavy")
	}
}

func TestScaledFloor(t *testing.T) {
	if scaled(1000, 0.0001) != 2 {
		t.Error("scaled floor not applied")
	}
	if scaled(1000, 0.5) != 500 {
		t.Error("scaled wrong")
	}
}

func TestGeometricCountMean(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	total := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		total += geometricCount(rng, 5)
	}
	mean := float64(total) / trials
	if mean < 4 || mean > 6 {
		t.Errorf("geometric mean = %g, want ≈5", mean)
	}
	if geometricCount(rng, 0) != 0 {
		t.Error("zero mean should give zero count")
	}
}

func TestZipfPickSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[zipfPick(rng, 10, harmonic(10))]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("zipf not skewed: first %d, last %d", counts[0], counts[9])
	}
}

// TestSaveBytesPinned pins the text codec's output: the SHA-256 of Save
// on GowallaLike(0.1, 7), recorded at 6500b4c when every line went
// through fmt.Fprintf.
func TestSaveBytesPinned(t *testing.T) {
	const want = "2a884560490a886b87c4331d0a4d2728e3a941656a32007fbcdfcf4a7033fae9"
	var buf bytes.Buffer
	if err := Save(&buf, GowallaLike(0.1, 7)); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("Save(GowallaLike(0.1, 7)) hashes to %s, want %s", got, want)
	}
}

// TestLoadEdgeLines holds the `e` directive's accept/reject set and
// error texts where they were before edge lines got their own parser.
func TestLoadEdgeLines(t *testing.T) {
	const head = "geosocial 1\nvertices 3\n"
	rows := []struct {
		line    string
		edges   int    // accepted: edges in the loaded graph
		wantErr string // rejected: the error, after the "dataset: line 3: " prefix
	}{
		{line: "e 0 1", edges: 1},
		{line: "e 2 0", edges: 1},
		{line: "e 1 1", edges: 0}, // a self-loop parses and is dropped by the graph
		{line: "e 002 1", edges: 1},
		{line: "e +0 1", edges: 1},
		{line: "e  0\t 1", edges: 1},
		{line: "  e 0 1 \r", edges: 1},
		{line: "e 0 3", wantErr: "edge (0,3) out of range"},
		{line: "e 3 0", wantErr: "edge (3,0) out of range"},
		{line: "e -1 0", wantErr: "edge (-1,0) out of range"},
		{line: "e 0 99999999999999999999", wantErr: `"99999999999999999999" is not an integer`},
		{line: "e 0", wantErr: "want `e src dst`"},
		{line: "e", wantErr: "want `e src dst`"},
		{line: "e 0 ", wantErr: "want `e src dst`"},
		{line: "e x 1", wantErr: `"x" is not an integer`},
		{line: "e 0 1x", wantErr: `"1x" is not an integer`},
		{line: "e 0 1.0", wantErr: `"1.0" is not an integer`},
		{line: "e 0 1 2", wantErr: "want `e src dst`"},
		{line: "e 0 1 # note", wantErr: "want `e src dst`"},
		{line: "e0 1", wantErr: `unknown directive "e0"`},
		{line: "edge 0 1", wantErr: `unknown directive "edge"`},
	}
	for _, row := range rows {
		net, err := Load(strings.NewReader(head + row.line + "\n"))
		switch {
		case row.wantErr == "" && err != nil:
			t.Errorf("%q: rejected: %v", row.line, err)
		case row.wantErr == "" && net.NumEdges() != row.edges:
			t.Errorf("%q: %d edges, want %d", row.line, net.NumEdges(), row.edges)
		case row.wantErr != "" && err == nil:
			t.Errorf("%q: accepted, want error %q", row.line, row.wantErr)
		case row.wantErr != "" && err.Error() != "dataset: line 3: "+row.wantErr:
			t.Errorf("%q: error %q, want %q", row.line, err, "dataset: line 3: "+row.wantErr)
		}
	}
	if _, err := Load(strings.NewReader("geosocial 1\ne 0 1\n")); err == nil || err.Error() != "dataset: line 2: e before vertices" {
		t.Errorf("e before vertices: error %v", err)
	}
}

// TestLoadPointLines holds the `p` directive's accept/reject set and
// error texts where they were before point lines got their own parser,
// and the rule that a later line for a vertex replaces an earlier one.
func TestLoadPointLines(t *testing.T) {
	const head = "geosocial 1\nvertices 3\n"
	rows := []struct {
		line    string
		x, y    float64 // accepted: vertex 0's point
		wantErr string  // rejected: the error, after the "dataset: line 3: " prefix
	}{
		{line: "p 0 1.5 2.5", x: 1.5, y: 2.5},
		{line: "p 0 -0 1e300", x: math.Copysign(0, -1), y: 1e300},
		{line: "p 0 +1 2", x: 1, y: 2},
		{line: "p 0 0x1p-2 3", x: 0.25, y: 3},
		{line: "p 00 1 2", x: 1, y: 2},
		{line: "p 0  1\t2", x: 1, y: 2},
		{line: "  p 0 1 2 \r", x: 1, y: 2},
		{line: "p 0 inf 2", wantErr: "coordinates (+Inf, 2) are not finite"},
		{line: "p 0 NaN 2", wantErr: "coordinates (NaN, 2) are not finite"},
		{line: "p 0 1e999 2", wantErr: "bad coordinates"},
		{line: "p 0 1_000 2", x: 1000, y: 2},
		{line: "p 0 a 2", wantErr: "bad coordinates"},
		{line: "p 0 1 ", wantErr: "want `p id x y`"},
		{line: "p 0 1", wantErr: "want `p id x y`"},
		{line: "p 0 1 2 3", wantErr: "want `p id x y`"},
		{line: "p 0 1 2 # note", wantErr: "want `p id x y`"},
		{line: "p 3 1 2", wantErr: "vertex 3 out of range"},
		{line: "p -1 1 2", wantErr: "vertex -1 out of range"},
		{line: "p x 1 2", wantErr: `"x" is not an integer`},
		{line: "p0 1 2", wantErr: `unknown directive "p0"`},
	}
	for _, row := range rows {
		net, err := Load(strings.NewReader(head + row.line + "\n"))
		switch {
		case row.wantErr == "" && err != nil:
			t.Errorf("%q: rejected: %v", row.line, err)
		case row.wantErr == "" && (!net.Spatial[0] ||
			math.Float64bits(net.Points[0].X) != math.Float64bits(row.x) || net.Points[0].Y != row.y):
			t.Errorf("%q: vertex 0 spatial %v at %v, want (%v, %v)", row.line, net.Spatial[0], net.Points[0], row.x, row.y)
		case row.wantErr != "" && err == nil:
			t.Errorf("%q: accepted, want error %q", row.line, row.wantErr)
		case row.wantErr != "" && err.Error() != "dataset: line 3: "+row.wantErr:
			t.Errorf("%q: error %q, want %q", row.line, err, "dataset: line 3: "+row.wantErr)
		}
	}

	net, err := Load(strings.NewReader(head + "g 1 0 0 4 4\np 1 9 9\np 2 9 9\ng 2 0 0 2 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if net.Extents[1] != (geom.Rect{}) || net.Points[1] != geom.Pt(9, 9) {
		t.Errorf("g then p: extent %v, point %v; want the point alone", net.Extents[1], net.Points[1])
	}
	if net.Extents[2] != geom.NewRect(0, 0, 2, 2) || net.Points[2] != geom.Pt(1, 1) {
		t.Errorf("p then g: extent %v, point %v; want the extent and its center", net.Extents[2], net.Points[2])
	}
	if _, err := Load(strings.NewReader(head + "vertices 5\n")); err == nil || err.Error() != "dataset: line 3: vertices given twice" {
		t.Errorf("a second vertices line: error %v", err)
	}
}

// TestLoadVertexCeiling pins what a `vertices` line may cost. Counts
// above MaxVertices are refused with an error naming the ceiling, before
// anything is allocated for them, and an accepted count allocates its
// columns only as far as the lines read name vertices, and in full once
// every line is read: a file refused on a later line leaves no column
// of the declared length behind. Every load allocates the scanner's
// 64 KiB buffer.
func TestLoadVertexCeiling(t *testing.T) {
	const scanner = 64 << 10
	rows := []struct {
		input   string
		wantErr string
		under   uint64 // bytes Load may allocate
	}{
		{input: "vertices 1000", under: 1 << 20},
		{input: "vertices 9223372", wantErr: "dataset: line 2: vertex count 9223372 exceeds the ceiling of 8388608", under: scanner + 4<<10},
		{input: "vertices 92233720", wantErr: "dataset: line 2: vertex count 92233720 exceeds the ceiling of 8388608", under: scanner + 4<<10},
		{input: "vertices 8388608\np 1000 1 1\nx", wantErr: `dataset: line 4: unknown directive "x"`, under: scanner + 128<<10},
	}
	for _, row := range rows {
		var err error
		bytes := allocatedBytes(func() { _, err = Load(strings.NewReader("geosocial 1\n" + row.input + "\n")) })
		switch {
		case row.wantErr == "" && err != nil:
			t.Errorf("%q: rejected: %v", row.input, err)
		case row.wantErr != "" && (err == nil || err.Error() != row.wantErr):
			t.Errorf("%q: error %v, want %q", row.input, err, row.wantErr)
		case bytes >= row.under:
			t.Errorf("%q: Load allocated %d bytes, want under %d", row.input, bytes, row.under)
		}
	}
	if net, err := load(strings.NewReader("geosocial 1\nvertices 100\n"), 100); err != nil || net.NumVertices() != 100 {
		t.Errorf("a count at the ceiling: %v", err)
	}
	if _, err := load(strings.NewReader("geosocial 1\nvertices 101\n"), 100); err == nil || err.Error() != "dataset: line 2: vertex count 101 exceeds the ceiling of 100" {
		t.Errorf("a count past the ceiling: error %v", err)
	}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
