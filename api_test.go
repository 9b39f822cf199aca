package rangereach_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	rangereach "repro"
)

// figure1 builds the paper's running example through the public API.
func figure1(t *testing.T) *rangereach.Network {
	t.Helper()
	b := rangereach.NewNetworkBuilder(12).SetName("figure-1")
	for _, e := range [][2]int{
		{0, 1}, {0, 3}, {0, 9},
		{1, 4}, {1, 11}, {1, 3},
		{2, 8}, {2, 10}, {2, 3},
		{4, 5}, {6, 8}, {8, 5}, {9, 6}, {9, 7}, {11, 7},
	} {
		b.AddEdge(e[0], e[1])
	}
	b.SetPoint(4, 70, 80).SetPoint(7, 80, 60).SetPoint(5, 10, 10).
		SetPoint(8, 20, 90).SetPoint(11, 40, 20)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPublicAPIPaperExample(t *testing.T) {
	net := figure1(t)
	region := rangereach.NewRect(60, 55, 90, 95)
	all := append([]rangereach.Method{rangereach.Naive}, rangereach.Methods...)
	all = append(all, rangereach.ExtendedMethods...)
	for _, m := range all {
		idx, err := net.Build(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !idx.RangeReach(0, region) {
			t.Errorf("%v: RangeReach(a, R) = false", m)
		}
		if idx.RangeReach(2, region) {
			t.Errorf("%v: RangeReach(c, R) = true", m)
		}
		if idx.Method() != m {
			t.Errorf("Method() = %v, want %v", idx.Method(), m)
		}
		if idx.Network() != net {
			t.Error("Network() does not round-trip")
		}
	}
}

func TestNetworkAccessors(t *testing.T) {
	net := figure1(t)
	if net.Name() != "figure-1" {
		t.Errorf("Name = %q", net.Name())
	}
	if net.NumVertices() != 12 || net.NumSpatial() != 5 {
		t.Error("counts wrong")
	}
	if net.NumEdges() != 15 {
		t.Errorf("NumEdges = %d", net.NumEdges())
	}
	if !net.IsSpatial(4) || net.IsSpatial(0) {
		t.Error("IsSpatial wrong")
	}
	if x, y, ok := net.PointOf(4); !ok || x != 70 || y != 80 {
		t.Errorf("PointOf(4) = %g,%g,%v", x, y, ok)
	}
	if _, _, ok := net.PointOf(0); ok {
		t.Error("PointOf(social) returned a point")
	}
	if net.OutDegree(0) != 3 {
		t.Errorf("OutDegree(0) = %d", net.OutDegree(0))
	}
	s := net.Space()
	if s.MinX != 10 || s.MaxX != 80 || s.MinY != 10 || s.MaxY != 90 {
		t.Errorf("Space = %+v", s)
	}
	st := net.Stats()
	if st.Users != 7 || st.Venues != 5 || st.Vertices != 12 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := rangereach.NewNetworkBuilder(-1).Build(); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := rangereach.NewNetworkBuilder(2).AddEdge(0, 5).Build(); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := rangereach.NewNetworkBuilder(2).SetPoint(9, 1, 1).Build(); err == nil {
		t.Error("out-of-range point accepted")
	}
	// Errors stick: later valid calls must not clear them.
	b := rangereach.NewNetworkBuilder(2).AddEdge(0, 5).AddEdge(0, 1).SetPoint(1, 2, 2)
	if _, err := b.Build(); err == nil {
		t.Error("sticky error cleared")
	}
}

func TestSaveAndRead(t *testing.T) {
	net := figure1(t)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := rangereach.ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 12 || got.NumSpatial() != 5 || got.Name() != "figure-1" {
		t.Error("round trip lost data")
	}
	if _, err := rangereach.ReadNetwork(strings.NewReader("junk")); err == nil {
		t.Error("junk accepted")
	}
	if _, err := rangereach.LoadNetwork("/definitely/missing.gsn"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestOptions(t *testing.T) {
	net := figure1(t)
	for _, m := range []rangereach.Method{rangereach.SpaReachBFL, rangereach.SpaReachINT} {
		idx, err := net.Build(m, rangereach.WithMBRPolicy())
		if err != nil {
			t.Fatalf("%v with MBR: %v", m, err)
		}
		if !idx.RangeReach(0, rangereach.NewRect(60, 55, 90, 95)) {
			t.Errorf("%v/MBR wrong answer", m)
		}
	}
	for _, m := range []rangereach.Method{rangereach.SocReach, rangereach.GeoReach,
		rangereach.ThreeDReach, rangereach.ThreeDReachRev} {
		if _, err := net.Build(m, rangereach.WithMBRPolicy()); err == nil {
			t.Errorf("%v+MBR accepted", m)
		}
	}
	if _, err := net.Build(rangereach.Method(99)); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestOptionCensus pins the package's build options: the exported
// functions of its non-test files that return an Option must be
// exactly these two, each set by a command or the benchmark. An
// option added without such a caller, or one the census removed, fails
// here.
func TestOptionCensus(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			for _, res := range fn.Type.Results.List {
				if id, ok := res.Type.(*ast.Ident); ok && id.Name == "Option" {
					got = append(got, fn.Name.Name)
					break
				}
			}
		}
	}
	slices.Sort(got)
	if want := []string{"WithMBRPolicy", "WithParallelism"}; !slices.Equal(got, want) {
		t.Errorf("exported Option constructors = %v, want %v", got, want)
	}
}

func TestSetRectGeometries(t *testing.T) {
	// Footnote 1: venues with rectangular extents. User 0 checks into a
	// mall spanning [40,60]²; every method answers by intersection.
	b := rangereach.NewNetworkBuilder(3).SetName("extents")
	b.AddEdge(0, 1).AddEdge(0, 2)
	b.SetRect(1, rangereach.NewRect(40, 40, 60, 60))
	b.SetPoint(2, 90, 90)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clip := rangereach.NewRect(58, 58, 70, 70)    // clips the mall corner
	outside := rangereach.NewRect(61, 61, 70, 70) // misses everything
	all := append([]rangereach.Method{rangereach.Naive}, rangereach.Methods...)
	all = append(all, rangereach.ExtendedMethods...)
	for _, m := range all {
		idx, err := net.Build(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !idx.RangeReach(0, clip) {
			t.Errorf("%v: clipping region should witness the extent", m)
		}
		if idx.RangeReach(0, outside) {
			t.Errorf("%v: disjoint region answered TRUE", m)
		}
	}
	// The dynamic index handles the extent-built network too.
	dyn := net.BuildDynamic()
	if !dyn.RangeReach(0, clip) || dyn.RangeReach(0, outside) {
		t.Error("dynamic index wrong on extents")
	}
	// Invalid extents surface as build errors.
	bad := rangereach.NewNetworkBuilder(1)
	bad.SetRect(0, rangereach.Rect{MinX: 5, MinY: 0, MaxX: 1, MaxY: 1})
	if _, err := bad.Build(); err == nil {
		t.Error("invalid extent accepted")
	}
	if _, err := rangereach.NewNetworkBuilder(1).SetRect(5, rangereach.NewRect(0, 0, 1, 1)).Build(); err == nil {
		t.Error("out-of-range SetRect accepted")
	}
}

// TestNonFiniteCoordinates: a NaN or infinite coordinate is rejected
// where it enters — the builder, the text loader, MoveVenue and AddVenue
// — because no index can place it. A finite venue far outside the
// initial space still answers a region that reaches to +Inf as Naive
// does, on every method and on the dynamic index.
func TestNonFiniteCoordinates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// User 0 checks into venues 100..199, spread over [0, 100]².
	build := func(set func(b *rangereach.NetworkBuilder)) (*rangereach.Network, error) {
		b := rangereach.NewNetworkBuilder(200)
		for v := 100; v < 200; v++ {
			b.AddEdge(0, v).SetPoint(v, float64(v-100), float64(v%10)*10)
		}
		set(b)
		return b.Build()
	}
	for name, set := range map[string]func(b *rangereach.NetworkBuilder){
		"SetPoint NaN":  func(b *rangereach.NetworkBuilder) { b.SetPoint(150, nan, 5) },
		"SetPoint +Inf": func(b *rangereach.NetworkBuilder) { b.SetPoint(150, 5, inf) },
		"SetPoint -Inf": func(b *rangereach.NetworkBuilder) { b.SetPoint(150, -inf, 5) },
		"SetRect +Inf":  func(b *rangereach.NetworkBuilder) { b.SetRect(150, rangereach.NewRect(0, 0, inf, 5)) },
		"SetRect NaN":   func(b *rangereach.NetworkBuilder) { b.SetRect(150, rangereach.Rect{MinX: nan, MaxX: 1, MaxY: 1}) },
	} {
		if _, err := build(set); err == nil {
			t.Errorf("%s: Build accepted it", name)
		}
	}
	for _, line := range []string{"p 1 NaN 5", "p 1 5 +Inf", "g 1 0 0 Inf 5"} {
		_, err := rangereach.ReadNetwork(strings.NewReader("geosocial 1\nvertices 2\n" + line + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%q: want an error naming line 3, got %v", line, err)
		}
	}

	net, err := build(func(*rangereach.NetworkBuilder) {})
	if err != nil {
		t.Fatal(err)
	}
	dyn := net.BuildDynamic()
	if err := dyn.MoveVenue(150, inf, 3); err == nil {
		t.Error("MoveVenue to +Inf accepted")
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "NaN") {
				t.Errorf("AddVenue(NaN, 5): want a panic naming the coordinates, got %v", r)
			}
		}()
		dyn.AddVenue(nan, 5)
	}()

	far := rangereach.NewRect(1000, 0, inf, 20)
	if err := dyn.MoveVenue(150, 2000, 3); err != nil {
		t.Fatal(err)
	}
	if !dyn.RangeReach(0, far) || !dyn.Snapshot().RangeReach(0, far) {
		t.Error("dynamic index: the venue moved to (2000, 3) is not found in [1000, +Inf] × [0, 20]")
	}
	moved, err := build(func(b *rangereach.NetworkBuilder) { b.SetPoint(150, 2000, 3) })
	if err != nil {
		t.Fatal(err)
	}
	all := append([]rangereach.Method{rangereach.Naive}, rangereach.Methods...)
	for _, m := range append(all, rangereach.ExtendedMethods...) {
		idx, err := moved.Build(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !idx.RangeReach(0, far) {
			t.Errorf("%v: the venue at (2000, 3) is not found in [1000, +Inf] × [0, 20]", m)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	net := figure1(t)
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic")
		}
	}()
	net.MustBuild(rangereach.SocReach, rangereach.WithMBRPolicy())
}

func TestRangeReachPanicsOutOfRange(t *testing.T) {
	idx := figure1(t).MustBuild(rangereach.ThreeDReach)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	idx.RangeReach(99, rangereach.NewRect(0, 0, 1, 1))
}

func TestMethodStrings(t *testing.T) {
	want := map[rangereach.Method]string{
		rangereach.ThreeDReach:    "3DReach",
		rangereach.ThreeDReachRev: "3DReach-Rev",
		rangereach.SocReach:       "SocReach",
		rangereach.SpaReachBFL:    "SpaReach-BFL",
		rangereach.SpaReachINT:    "SpaReach-INT",
		rangereach.GeoReach:       "GeoReach",
		rangereach.Naive:          "NaiveBFS",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if rangereach.Method(77).String() == "" {
		t.Error("unknown method string empty")
	}
}

func TestSyntheticAndPresets(t *testing.T) {
	net := rangereach.GenerateSynthetic(rangereach.SyntheticConfig{
		Name: "s", Users: 300, Venues: 200, AvgFriends: 4, AvgCheckins: 2,
		GiantSCC: true, Seed: 5,
	})
	st := net.Stats()
	if st.LargestSCC != 300 {
		t.Errorf("giant SCC = %d, want 300", st.LargestSCC)
	}

	for _, gen := range []func(float64, int64) *rangereach.Network{
		rangereach.FoursquareLike, rangereach.GowallaLike,
		rangereach.WeeplacesLike, rangereach.YelpLike,
	} {
		n := gen(0.02, 3)
		if n.NumVertices() < 4 {
			t.Error("preset too small")
		}
	}
}

func TestPublicEnginesAgreeOnSynthetic(t *testing.T) {
	net := rangereach.GenerateSynthetic(rangereach.SyntheticConfig{
		Name: "agree", Users: 400, Venues: 250, AvgFriends: 4, AvgCheckins: 2,
		CoreFraction: 0.4, Seed: 11,
	})
	oracle := net.MustBuild(rangereach.Naive)
	var indexes []*rangereach.Index
	for _, m := range rangereach.Methods {
		indexes = append(indexes, net.MustBuild(m))
	}
	rng := rand.New(rand.NewSource(13))
	space := net.Space()
	for q := 0; q < 60; q++ {
		v := rng.Intn(net.NumVertices())
		w := rng.Float64() * (space.MaxX - space.MinX) / 2
		h := rng.Float64() * (space.MaxY - space.MinY) / 2
		x := space.MinX + rng.Float64()*(space.MaxX-space.MinX-w)
		y := space.MinY + rng.Float64()*(space.MaxY-space.MinY-h)
		r := rangereach.NewRect(x, y, x+w, y+h)
		want := oracle.RangeReach(v, r)
		for _, idx := range indexes {
			if got := idx.RangeReach(v, r); got != want {
				t.Fatalf("%v(%d, %+v) = %v, want %v", idx.Method(), v, r, got, want)
			}
		}
	}
}

// TestThreeDReachTilesMatchRev checks 3DReach's point tiles against
// 3DReach-Rev, which shares no spatial structure with them, on networks
// of thousands of venues — many slabs and cells, which the fuzzed
// networks of a dozen vertices never leave one of — in the giant-SCC
// regime and the fragmented one. The queries are lib-query's: a user
// with an out-edge and a square of 0.05, 1, 5 or 20 % of the space,
// 2,000 of each size.
func TestThreeDReachTilesMatchRev(t *testing.T) {
	for _, net := range []*rangereach.Network{rangereach.GowallaLike(0.1, 1), rangereach.YelpLike(0.1, 1)} {
		tiles, rev := net.MustBuild(rangereach.ThreeDReach), net.MustBuild(rangereach.ThreeDReachRev)
		var users []int
		for v := 0; v < net.NumVertices(); v++ {
			if !net.IsSpatial(v) && net.OutDegree(v) > 0 {
				users = append(users, v)
			}
		}
		rng := rand.New(rand.NewSource(17))
		space := net.Space()
		w, h := space.MaxX-space.MinX, space.MaxY-space.MinY
		positive := 0
		for _, share := range []float64{0.0005, 0.01, 0.05, 0.20} {
			side := math.Sqrt(share)
			for q := 0; q < 2000; q++ {
				v := users[rng.Intn(len(users))]
				x := space.MinX + rng.Float64()*w*(1-side)
				y := space.MinY + rng.Float64()*h*(1-side)
				r := rangereach.NewRect(x, y, x+side*w, y+side*h)
				want := rev.RangeReach(v, r)
				if got := tiles.RangeReach(v, r); got != want {
					t.Fatalf("%s, share %g: 3DReach(%d, %+v) = %v, 3DReach-Rev says %v", net.Name(), share, v, r, got, want)
				}
				if want {
					positive++
				}
			}
		}
		if positive < 800 || positive > 7200 {
			t.Errorf("%s: %d of 8000 queries positive; the draw hardly tests one of the answers", net.Name(), positive)
		}
	}
}

func TestIndexStats(t *testing.T) {
	net := figure1(t)
	idx := net.MustBuild(rangereach.ThreeDReach)
	st := idx.Stats()
	if st.Bytes <= 0 {
		t.Errorf("Bytes = %d", st.Bytes)
	}
	if st.Method != rangereach.ThreeDReach {
		t.Error("Stats method wrong")
	}
	naive := net.MustBuild(rangereach.Naive)
	if naive.Stats().Bytes != 0 {
		t.Error("naive index should report zero bytes")
	}
}
