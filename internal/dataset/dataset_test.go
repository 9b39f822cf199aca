package dataset

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
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
	if p.CompMBR[c3] != geom.RectFromPoint(geom.Pt(10, 10)) {
		t.Errorf("CompMBR = %v", p.CompMBR[c3])
	}
	if !p.DAG.IsDAG() {
		t.Error("prepared graph not a DAG")
	}
}

func TestPrepareSpatialSCC(t *testing.T) {
	// A cycle that includes two spatial vertices: the component MBR must
	// cover both points and list both members.
	g := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	net := &Network{
		Name:    "spatial-scc",
		Graph:   g,
		Spatial: []bool{false, true, true},
		Points:  []geom.Point{{}, geom.Pt(0, 0), geom.Pt(4, 2)},
	}
	p := Prepare(net)
	if p.NumComponents() != 1 {
		t.Fatalf("NumComponents = %d", p.NumComponents())
	}
	if len(p.SpatialMembers[0]) != 2 {
		t.Errorf("SpatialMembers = %v", p.SpatialMembers[0])
	}
	if p.CompMBR[0] != geom.NewRect(0, 0, 4, 2) {
		t.Errorf("CompMBR = %v", p.CompMBR[0])
	}
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
		counts[zipfPick(rng, 10)]++
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
