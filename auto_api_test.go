package rangereach_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	rangereach "repro"
)

// autoNet is the synthetic network the public Auto tests share.
func autoNet() *rangereach.Network {
	return rangereach.GenerateSynthetic(rangereach.SyntheticConfig{
		Name: "auto-api", Users: 300, Venues: 200, AvgFriends: 4, AvgCheckins: 2,
		CoreFraction: 0.3, Seed: 17,
	})
}

func TestAutoPublicParity(t *testing.T) {
	net := autoNet()
	oracle := net.MustBuild(rangereach.Naive)
	idx, err := net.Build(rangereach.MethodAuto)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Method() != rangereach.MethodAuto {
		t.Errorf("Method() = %v, want MethodAuto", idx.Method())
	}
	if got := idx.Method().String(); got != "Auto" {
		t.Errorf("MethodAuto.String() = %q", got)
	}
	rng := rand.New(rand.NewSource(19))
	space := net.Space()
	for q := 0; q < 80; q++ {
		v := rng.Intn(net.NumVertices())
		w := rng.Float64() * (space.MaxX - space.MinX) / 2
		h := rng.Float64() * (space.MaxY - space.MinY) / 2
		x := space.MinX + rng.Float64()*(space.MaxX-space.MinX-w)
		y := space.MinY + rng.Float64()*(space.MaxY-space.MinY-h)
		r := rangereach.NewRect(x, y, x+w, y+h)
		if got, want := idx.RangeReach(v, r), oracle.RangeReach(v, r); got != want {
			t.Fatalf("Auto(%d, %+v) = %v, want %v", v, r, got, want)
		}
	}

	if members := idx.PlannerMembers(); !slices.Equal(members, []string{"3DReach"}) {
		t.Fatalf("PlannerMembers = %v, want [3DReach]", members)
	}
	// Fixed-method indexes have no members.
	if fixed := net.MustBuild(rangereach.SocReach); fixed.PlannerMembers() != nil {
		t.Error("fixed-method index reports members")
	}
}

// TestAutoDefaultIsThreeDReach: a default Auto is 3DReach, byte for
// byte in its accounting, and its untraced query allocates nothing.
func TestAutoDefaultIsThreeDReach(t *testing.T) {
	net := autoNet()
	auto := net.MustBuild(rangereach.MethodAuto)
	threeD := net.MustBuild(rangereach.ThreeDReach)
	if got, want := auto.Stats().Bytes, threeD.Stats().Bytes; got != want {
		t.Errorf("default Auto Stats().Bytes = %d, 3DReach's = %d", got, want)
	}
	r := rangereach.NewRect(10, 10, 60, 60)
	if allocs := testing.AllocsPerRun(200, func() { auto.RangeReach(3, r) }); allocs != 0 {
		t.Errorf("untraced Auto RangeReach allocates %.1f times, want 0", allocs)
	}
}

// TestAutoRule checks the rule on the benchmark's networks and region
// shares: PlannerMembers lists the members as given, every query is
// routed to the member the preference order ranks first, and the
// answers are that member's, built alone.
func TestAutoRule(t *testing.T) {
	nets := []*rangereach.Network{rangereach.GowallaLike(0.1, 1), rangereach.YelpLike(0.1, 1)}
	cases := []struct {
		members []rangereach.Method // nil: the default
		names   []string
		want    rangereach.Method
	}{
		{nil, []string{"3DReach"}, rangereach.ThreeDReach},
		{
			[]rangereach.Method{rangereach.SocReach, rangereach.ThreeDReachRev, rangereach.SpaReachINT},
			[]string{"SocReach", "3DReach-Rev", "SpaReach-INT"}, rangereach.ThreeDReachRev,
		},
		{
			[]rangereach.Method{rangereach.SocReach, rangereach.SpaReachBFL},
			[]string{"SocReach", "SpaReach-BFL"}, rangereach.SpaReachBFL,
		},
	}
	for _, net := range nets {
		queries := autoRuleQueries(net)
		for _, mbr := range []bool{false, true} {
			for _, tc := range cases {
				var opts []rangereach.Option
				if mbr {
					opts = append(opts, rangereach.WithMBRPolicy())
				}
				// 3DReach and 3DReach-Rev have no MBR variant: inside
				// Auto they run Replicate.
				alone := net.MustBuild(tc.want)
				if tc.want == rangereach.SpaReachBFL {
					alone = net.MustBuild(tc.want, opts...)
				}
				if tc.members != nil {
					opts = append(opts, rangereach.WithAutoMembers(tc.members...))
				}
				auto, err := net.Build(rangereach.MethodAuto, opts...)
				if err != nil {
					t.Fatalf("%s mbr=%v %v: %v", net.Name(), mbr, tc.names, err)
				}
				if got := auto.PlannerMembers(); !slices.Equal(got, tc.names) {
					t.Errorf("%s mbr=%v: PlannerMembers = %v, want %v", net.Name(), mbr, got, tc.names)
				}
				for _, q := range queries {
					got, qs := auto.Explain(q.Vertex, q.Region)
					if qs.Plan == nil || qs.Plan.Method != tc.want.String() {
						t.Fatalf("%s mbr=%v %v: query %+v routed to %+v, want %v",
							net.Name(), mbr, tc.names, q, qs.Plan, tc.want)
					}
					if want := alone.RangeReach(q.Vertex, q.Region); got != want {
						t.Fatalf("%s mbr=%v %v: query %+v = %v, %v alone says %v",
							net.Name(), mbr, tc.names, q, got, tc.want, want)
					}
				}
			}
		}
	}
}

// autoRuleQueries draws 64 queries at each of the benchmark's region
// shares (0.05 %, 1 %, 5 % and 20 % of the space): a square placed
// uniformly, asked of a user with an out-edge.
func autoRuleQueries(net *rangereach.Network) []rangereach.Query {
	var users []int
	for v := 0; v < net.NumVertices(); v++ {
		if !net.IsSpatial(v) && net.OutDegree(v) > 0 {
			users = append(users, v)
		}
	}
	rng := rand.New(rand.NewSource(41))
	space := net.Space()
	w, h := space.MaxX-space.MinX, space.MaxY-space.MinY
	var qs []rangereach.Query
	for _, share := range []float64{0.0005, 0.01, 0.05, 0.20} {
		side := math.Sqrt(share)
		for i := 0; i < 64; i++ {
			x := space.MinX + rng.Float64()*w*(1-side)
			y := space.MinY + rng.Float64()*h*(1-side)
			qs = append(qs, rangereach.Query{
				Vertex: users[rng.Intn(len(users))],
				Region: rangereach.NewRect(x, y, x+w*side, y+h*side),
			})
		}
	}
	return qs
}

func TestAutoPublicOptions(t *testing.T) {
	net := autoNet()
	idx, err := net.Build(rangereach.MethodAuto,
		rangereach.WithAutoMembers(rangereach.SpaReachBFL, rangereach.ThreeDReach))
	if err != nil {
		t.Fatal(err)
	}
	members := idx.PlannerMembers()
	if len(members) != 2 || members[0] != "SpaReach-BFL" || members[1] != "3DReach" {
		t.Errorf("PlannerMembers = %v", members)
	}

	// Auto composes with the MBR policy (members without an MBR variant
	// run Replicate internally).
	if _, err := net.Build(rangereach.MethodAuto, rangereach.WithMBRPolicy(),
		rangereach.WithAutoMembers(rangereach.SocReach, rangereach.ThreeDReach)); err != nil {
		t.Errorf("Auto+MBR: %v", err)
	}

	// Invalid members surface as build errors that name the method the
	// caller passed, not silent drops.
	for _, m := range []rangereach.Method{rangereach.MethodAuto, rangereach.Naive, rangereach.Method(99)} {
		_, err := net.Build(rangereach.MethodAuto, rangereach.WithAutoMembers(rangereach.SocReach, m))
		if err == nil {
			t.Errorf("member %v accepted", m)
		} else if !strings.Contains(err.Error(), m.String()) {
			t.Errorf("member %v: error %q does not name it", m, err)
		}
	}
}

func TestAutoPublicExplain(t *testing.T) {
	net := autoNet()
	idx := net.MustBuild(rangereach.MethodAuto)
	_, qs := idx.Explain(3, rangereach.NewRect(10, 10, 60, 60))
	if qs.Plan == nil || qs.Plan.Method != "3DReach" {
		t.Fatalf("Explain on a default Auto: plan %+v, want 3DReach", qs.Plan)
	}
	if s := qs.String(); !strings.Contains(s, "plan=3DReach") {
		t.Errorf("QueryStats.String() misses the plan: %q", s)
	}

	// Fixed methods keep a nil plan.
	_, qs = net.MustBuild(rangereach.SocReach).Explain(3, rangereach.NewRect(10, 10, 60, 60))
	if qs.Plan != nil {
		t.Error("SocReach Explain reported a plan")
	}
}

func TestAutoPublicPersistRoundtrip(t *testing.T) {
	net := autoNet()
	idx := net.MustBuild(rangereach.MethodAuto)
	path := filepath.Join(t.TempDir(), "auto.idx")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := net.LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Method() != rangereach.MethodAuto {
		t.Fatalf("loaded method %v", loaded.Method())
	}
	rng := rand.New(rand.NewSource(23))
	for q := 0; q < 40; q++ {
		v := rng.Intn(net.NumVertices())
		r := rangereach.NewRect(rng.Float64()*50, rng.Float64()*50,
			50+rng.Float64()*50, 50+rng.Float64()*50)
		if loaded.RangeReach(v, r) != idx.RangeReach(v, r) {
			t.Fatalf("loaded Auto disagrees at (%d, %+v)", v, r)
		}
	}
}
