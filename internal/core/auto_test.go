package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/trace"
)

// autoParityMembers are the member sets the parity suite sweeps: the
// default, a spatial-heavy set, and a set including the extended
// (non-persistable) PLL variant.
var autoParityMembers = [][]Method{
	nil, // DefaultAutoMembers
	{MethodSpaReachBFL, MethodThreeDReach},
	{MethodSocReach, MethodSpaReachPLL, MethodGeoReach},
}

// TestAutoParity is the composite's parity suite: it must return
// exactly the ground-truth answer, and so must every member, across
// synthetic datasets (cyclic, acyclic, spatial-SCC), region sizes from
// tiny to everything, and both SCC policies.
func TestAutoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 12; trial++ {
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
		for _, members := range autoParityMembers {
			for _, policy := range []dataset.SCCPolicy{dataset.Replicate, dataset.MBR} {
				res, err := BuildMethod(prep, MethodAuto, BuildOptions{
					Policy: policy,
					Auto:   AutoOptions{Members: members},
				})
				if err != nil {
					t.Fatalf("trial %d members %v policy %v: %v", trial, members, policy, err)
				}
				auto := res.Engine.(*Auto)
				for q := 0; q < 30; q++ {
					v := rng.Intn(net.NumVertices())
					r := randomRegion(rng)
					if q%10 == 0 {
						r = randomRegion(rng).Union(randomRegion(rng)) // larger sweep point
					}
					want := truth.RangeReach(v, r)
					if got := auto.RangeReach(v, r); got != want {
						t.Fatalf("trial %d members %v policy %v: Auto(%d, %v) = %v, want %v",
							trial, members, policy, v, r, got, want)
					}
					for _, e := range auto.Members() {
						if got := e.RangeReach(v, r); got != want {
							t.Fatalf("trial %d: member %s disagrees at (%d, %v)", trial, e.Name(), v, r)
						}
					}
				}
			}
		}
	}
}

// TestAutoBuildErrors exercises the composite's input validation.
func TestAutoBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	prep := dataset.Prepare(randomNetwork(rng, 10, 8, false))
	cases := []struct {
		name    string
		members []Method
	}{
		{"self-referential", []Method{MethodAuto}},
		{"duplicate", []Method{MethodSocReach, MethodSocReach}},
		{"too many", []Method{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"unknown", []Method{Method(99)}},
	}
	for _, tc := range cases {
		if _, err := BuildAuto(prep, BuildOptions{Auto: AutoOptions{Members: tc.members}}); err == nil {
			t.Errorf("%s member set accepted", tc.name)
		}
	}
}

// TestAutoMBRKeepsNonMBRMembers checks per-member policy handling: an
// MBR composite that includes SocReach (no MBR variant) must still
// build, with SocReach silently running Replicate.
func TestAutoMBRKeepsNonMBRMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	net := spatialCycleNetwork(rng, 60)
	prep := dataset.Prepare(net)
	res, err := BuildMethod(prep, MethodAuto, BuildOptions{
		Policy: dataset.MBR,
		Auto:   AutoOptions{Members: []Method{MethodSocReach, MethodSpaReachINT}},
	})
	if err != nil {
		t.Fatalf("MBR composite with SocReach member: %v", err)
	}
	truth := NewNaiveBFS(net)
	for q := 0; q < 40; q++ {
		v := rng.Intn(net.NumVertices())
		r := randomRegion(rng)
		if got, want := res.Engine.RangeReach(v, r), truth.RangeReach(v, r); got != want {
			t.Fatalf("Auto/MBR(%d, %v) = %v, want %v", v, r, got, want)
		}
	}
}

// TestAutoTracePlan checks that a traced query names the member the
// preference order ranks first, whatever the stored order.
func TestAutoTracePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	net := randomNetwork(rng, 30, 20, true)
	prep := dataset.Prepare(net)
	for _, tc := range []struct {
		members []Method
		want    string
	}{
		{nil, "3DReach"},
		{[]Method{MethodGeoReach, MethodSocReach, MethodSpaReachBFL}, "SpaReach-BFL"},
		{[]Method{MethodSocReach, MethodThreeDReachRev, MethodSpaReachINT}, "3DReach-Rev"},
	} {
		auto, err := BuildAuto(prep, BuildOptions{Auto: AutoOptions{Members: tc.members}})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			var sp trace.Span
			auto.RangeReachTraced(rng.Intn(net.NumVertices()), randomRegion(rng), &sp)
			if sp.Plan != tc.want {
				t.Fatalf("members %v: traced plan %q, want %q", tc.members, sp.Plan, tc.want)
			}
		}
	}
}

// TestAutoPersistNotPersistableMember keeps the ErrNotPersistable
// semantics: a composite has no save format, whether or not its members
// have one, so one with a PLL member and the default one (3DReach
// alone) are both refused.
func TestAutoPersistNotPersistableMember(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	prep := dataset.Prepare(randomNetwork(rng, 15, 10, true))
	for _, members := range [][]Method{{MethodSocReach, MethodSpaReachPLL}, nil} {
		auto, err := BuildAuto(prep, BuildOptions{Auto: AutoOptions{Members: members}})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveEngine(&buf, auto); !errors.Is(err, ErrNotPersistable) || buf.Len() != 0 {
			t.Errorf("saving composite of %v: got %v and %d bytes, want ErrNotPersistable and none", members, err, buf.Len())
		}
	}
}

// TestAutoConcurrentQueries hammers one composite from several
// goroutines; run under -race (ci.sh does) to check that routing shares
// no mutable state.
func TestAutoConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(257))
	net := randomNetwork(rng, 50, 30, true)
	prep := dataset.Prepare(net)
	auto, err := BuildAuto(prep, BuildOptions{Auto: AutoOptions{
		Members: []Method{MethodSocReach, MethodThreeDReachRev, MethodSpaReachINT},
	}})
	if err != nil {
		t.Fatal(err)
	}
	truth := NewNaiveBFS(net)
	// Precompute queries and ground truth on one goroutine; rng and the
	// naive oracle are not safe for concurrent use.
	type query struct {
		v    int
		r    geom.Rect
		want bool
	}
	full := make([]query, 64)
	for i := range full {
		v := rng.Intn(net.NumVertices())
		r := randomRegion(rng)
		full[i] = query{v: v, r: r, want: truth.RangeReach(v, r)}
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for rep := 0; rep < 20; rep++ {
				for _, fq := range full {
					if auto.RangeReach(fq.v, fq.r) != fq.want {
						done <- errors.New("concurrent auto answer diverged")
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkAutoOverhead measures the composite's per-query routing cost
// against calling the same member directly on an identical workload.
func BenchmarkAutoOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(271))
	net := spatialCycleNetwork(rng, 400)
	prep := dataset.Prepare(net)
	auto, err := BuildAuto(prep, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	type query struct {
		v int
		r geom.Rect
	}
	qs := make([]query, 256)
	for i := range qs {
		qs[i] = query{rng.Intn(net.NumVertices()), randomRegion(rng)}
	}
	b.Run("auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			auto.RangeReach(q.v, q.r)
		}
	})
	b.Run("member", func(b *testing.B) {
		m := auto.Members()[0]
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			m.RangeReach(q.v, q.r)
		}
	})
}
