package planner

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/labeling"
)

func testPrep(t *testing.T, seed int64) (*dataset.Prepared, *labeling.Labeling) {
	t.Helper()
	net := dataset.Generate(dataset.GenConfig{
		Name:        "planner-test",
		Users:       400,
		Venues:      300,
		AvgFriends:  4,
		AvgCheckins: 2,
		Regime:      dataset.Fragmented,
		Seed:        seed,
	})
	prep := dataset.Prepare(net)
	return prep, labeling.Build(prep.DAG, labeling.Options{})
}

func randomRegion(rng *rand.Rand, space geom.Rect) geom.Rect {
	w := space.Width() * (0.01 + 0.25*rng.Float64())
	h := space.Height() * (0.01 + 0.25*rng.Float64())
	x := space.Min.X + rng.Float64()*(space.Width()-w)
	y := space.Min.Y + rng.Float64()*(space.Height()-h)
	return geom.NewRect(x, y, x+w, y+h)
}

// TestRegionBoundsBracketExact is the estimator accuracy bounds test:
// the histogram's lower/upper bounds must bracket the true |P ∩ R| for
// arbitrary regions, including degenerate and out-of-space ones.
func TestRegionBoundsBracketExact(t *testing.T) {
	prep, fwd := testPrep(t, 7)
	est := NewEstimator(prep, fwd)
	space := prep.Net.Space()
	rng := rand.New(rand.NewSource(99))

	exact := func(r geom.Rect) float64 {
		var n float64
		for v, s := range prep.Net.Spatial {
			if s && r.ContainsPoint(prep.Net.Points[v]) {
				n++
			}
		}
		return n
	}

	regions := []geom.Rect{
		space, // whole space: lo == hi == |P|
		geom.NewRect(space.Max.X+1, space.Max.Y+1, space.Max.X+2, space.Max.Y+2), // disjoint
	}
	for i := 0; i < 300; i++ {
		regions = append(regions, randomRegion(rng, space))
	}
	for _, r := range regions {
		lo, hi := est.RegionBounds(r)
		ex := exact(r)
		if lo > ex || ex > hi {
			t.Fatalf("region %v: bounds [%g, %g] miss exact %g", r, lo, hi, ex)
		}
		if got := est.RegionCount(r); got < lo || got > hi {
			t.Fatalf("region %v: midpoint %g outside [%g, %g]", r, got, lo, hi)
		}
	}
	if lo, hi := est.RegionBounds(space); lo != est.TotalSpatial() || hi != est.TotalSpatial() {
		t.Fatalf("whole space: want tight bounds at %g, got [%g, %g]", est.TotalSpatial(), lo, hi)
	}
}

// TestDescendantMassMatchesLabeling checks the mass estimator is the
// labeling's exact descendant count, not an approximation.
func TestDescendantMassMatchesLabeling(t *testing.T) {
	prep, fwd := testPrep(t, 11)
	est := NewEstimator(prep, fwd)
	for v := 0; v < prep.Net.NumVertices(); v += 17 {
		want := float64(fwd.DescendantCount(int(prep.Comp[v])))
		if got := est.DescendantMass(v); got != want {
			t.Fatalf("vertex %d: mass %g, labeling says %g", v, got, want)
		}
		if got := est.LabelCount(v); got != len(fwd.Labels[prep.Comp[v]]) {
			t.Fatalf("vertex %d: label count %d, labeling says %d", v, got, len(fwd.Labels[prep.Comp[v]]))
		}
	}
}

// TestCuboidWorkIsOneDescent pins 3DReach's work shape: the plane
// query's single descent for a one-interval label, growing with the
// logarithm of the label and never with the label itself.
func TestCuboidWorkIsOneDescent(t *testing.T) {
	prep, fwd := testPrep(t, 11)
	est := NewEstimator(prep, fwd)
	p := New(est, NewModel(1, 0, -1), []Member{{Name: "3DReach", Kind: WorkCuboids}})
	longest := 0
	for v := 0; v < prep.Net.NumVertices(); v++ {
		var buf [MaxMembers]float64
		n := est.LabelCount(v)
		longest = max(longest, n)
		switch w := p.EstimateWorks(v, geom.Rect{}, buf[:])[0]; {
		case n == 1 && w != est.LogP():
			t.Fatalf("vertex %d: one interval costs %g, want one descent %g", v, w, est.LogP())
		case n > 2 && (w <= est.LogP() || w >= float64(n)*est.LogP()):
			t.Fatalf("vertex %d: %d intervals cost %g, want between one descent %g and one per interval", v, n, w, est.LogP())
		}
	}
	if longest < 8 {
		t.Fatalf("longest label has %d intervals; the network does not exercise the label term", longest)
	}
}

// TestModelConvergence is the feedback-loop test: concurrent observers
// reporting a fixed per-unit cost must pull the EMA coefficient to it.
// Run under -race (ci.sh does) to exercise the CAS loop.
func TestModelConvergence(t *testing.T) {
	m := NewModel(3, 0.2, -1)
	trueCost := []float64{5e-8, 2e-6, 4e-7}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				member := rng.Intn(3)
				work := 1 + rng.Float64()*1000
				m.Observe(member, work, trueCost[member]*(1+work))
			}
		}(g)
	}
	wg.Wait()
	for i, want := range trueCost {
		got := m.Coef(i)
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("member %d: coefficient %g did not converge to %g", i, got, want)
		}
	}
}

// TestObserveIgnoresGarbage checks non-positive and NaN observations
// leave the coefficient untouched.
func TestObserveIgnoresGarbage(t *testing.T) {
	m := NewModel(1, 0.5, -1)
	before := m.Coef(0)
	m.Observe(0, 10, 0)
	m.Observe(0, 10, -1)
	m.Observe(0, 10, math.NaN())
	if got := m.Coef(0); got != before {
		t.Fatalf("garbage observation moved coefficient %g -> %g", before, got)
	}
	m.SetCoef(0, math.Inf(1))
	m.SetCoef(0, -3)
	if got := m.Coef(0); got != before {
		t.Fatalf("garbage SetCoef moved coefficient %g -> %g", before, got)
	}
}

// TestChooseArgminAndExplore checks cost-based routing picks the
// cheapest member and that exploration ticks cycle through all members.
func TestChooseArgminAndExplore(t *testing.T) {
	m := NewModel(3, 0.2, -1)
	m.SetCoef(0, 1e-6)
	m.SetCoef(1, 1e-8) // cheapest per unit
	m.SetCoef(2, 1e-7)
	works := []float64{10, 10, 10}
	for i := 0; i < 20; i++ {
		choice, explored := m.Choose(works)
		if explored {
			t.Fatal("exploration fired with exploreEvery disabled")
		}
		if choice != 1 {
			t.Fatalf("choice %d, want cheapest member 1", choice)
		}
	}

	// Member 1 stays cheapest, but every 4th query must explore, and
	// exploration must visit every member eventually.
	me := NewModel(3, 0.2, 4)
	me.SetCoef(0, 1e-6)
	me.SetCoef(1, 1e-8)
	me.SetCoef(2, 1e-7)
	seen := map[int]bool{}
	explorations := 0
	for i := 0; i < 40; i++ {
		choice, explored := me.Choose(works)
		if explored {
			explorations++
			seen[choice] = true
		} else if choice != 1 {
			t.Fatalf("non-exploration choice %d, want 1", choice)
		}
	}
	if explorations != 10 {
		t.Fatalf("got %d explorations over 40 queries at every=4, want 10", explorations)
	}
	if len(seen) != 3 {
		t.Fatalf("exploration visited %d members, want all 3", len(seen))
	}
}

// TestPlannerPlan exercises the allocating Plan path end to end over a
// real dataset: works match EstimateWorks, the choice matches the
// model, and predictions are populated for every candidate.
func TestPlannerPlan(t *testing.T) {
	prep, fwd := testPrep(t, 13)
	est := NewEstimator(prep, fwd)
	members := []Member{
		{Name: "SocReach", Kind: WorkDescendants},
		{Name: "3DReach-Rev", Kind: WorkPlane},
		{Name: "SpaReach-INT", Kind: WorkCandidates},
	}
	p := New(est, NewModel(len(members), 0, -1), members)

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		v := rng.Intn(prep.Net.NumVertices())
		r := randomRegion(rng, prep.Net.Space())
		pl := p.Plan(v, r)
		if len(pl.Candidates) != len(members) {
			t.Fatalf("plan has %d candidates, want %d", len(pl.Candidates), len(members))
		}
		var buf [MaxMembers]float64
		works := p.EstimateWorks(v, r, buf[:])
		best, cost := 0, math.Inf(1)
		for j := range members {
			if c := p.Model().Predict(j, works[j]); c < cost {
				best, cost = j, c
			}
			if pl.Candidates[j].Work != works[j] {
				t.Fatalf("candidate %d work %g, want %g", j, pl.Candidates[j].Work, works[j])
			}
			if pl.Candidates[j].PredictedSeconds <= 0 {
				t.Fatalf("candidate %d has non-positive prediction", j)
			}
		}
		if pl.Choice != best || pl.Explored {
			t.Fatalf("plan chose %d (explored=%v), argmin is %d", pl.Choice, pl.Explored, best)
		}
		if pl.PredictedSeconds != pl.Candidates[best].PredictedSeconds {
			t.Fatal("plan prediction does not match chosen candidate")
		}
	}
}

func BenchmarkEstimateWorks(b *testing.B) {
	net := dataset.Generate(dataset.GenConfig{
		Name: "bench", Users: 2000, Venues: 1500,
		AvgFriends: 5, AvgCheckins: 2, Seed: 3,
	})
	prep := dataset.Prepare(net)
	fwd := labeling.Build(prep.DAG, labeling.Options{})
	est := NewEstimator(prep, fwd)
	p := New(est, NewModel(3, 0, -1), []Member{
		{Name: "SocReach", Kind: WorkDescendants},
		{Name: "3DReach-Rev", Kind: WorkPlane},
		{Name: "SpaReach-INT", Kind: WorkCandidates},
	})
	r := geom.NewRect(0.2, 0.2, 0.4, 0.4)
	var buf [MaxMembers]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		works := p.EstimateWorks(i%net.NumVertices(), r, buf[:])
		p.Choose(works)
	}
}
