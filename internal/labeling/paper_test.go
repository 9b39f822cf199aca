package labeling

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/intervals"
)

// The running example of the paper: the geosocial network of Figure 1
// with the spanning forest of Figure 3 and the labels of Table 1.
// Vertices a..l are ids 0..11.
const (
	vA = iota
	vB
	vC
	vD
	vE
	vF
	vG
	vH
	vI
	vJ
	vK
	vL
)

// paperGraph returns the Figure 1 network: tree edges
// a→{b,d,j}, b→{e,l}, e→f, j→{g,h}, c→{i,k} and non-tree edges
// (l,h), (b,d), (g,i), (i,f), (c,d).
func paperGraph() *graph.Graph {
	return graph.FromEdges(12, [][2]int{
		{vA, vB}, {vA, vD}, {vA, vJ},
		{vB, vE}, {vB, vL}, {vB, vD},
		{vC, vI}, {vC, vK}, {vC, vD},
		{vE, vF},
		{vG, vI},
		{vI, vF},
		{vJ, vG}, {vJ, vH},
		{vL, vH},
	})
}

// paperForest returns the hand-picked spanning forest of Figure 3, whose
// post-order numbering matches Table 1: f=1, e=2, l=3, b=4, d=5, g=6,
// h=7, j=8, a=9, i=10, k=11, c=12.
func paperForest(g *graph.Graph) *graph.SpanningForest {
	parent := []int32{
		vA: -1,
		vB: vA,
		vC: -1,
		vD: vA,
		vE: vB,
		vF: vE,
		vG: vJ,
		vH: vJ,
		vI: vC,
		vJ: vA,
		vK: vC,
		vL: vB,
	}
	return graph.ForestFromParents(g, parent, []int32{vA, vC})
}

func wantPost() map[int]int32 {
	return map[int]int32{
		vF: 1, vE: 2, vL: 3, vB: 4, vD: 5, vG: 6,
		vH: 7, vJ: 8, vA: 9, vI: 10, vK: 11, vC: 12,
	}
}

// iv builds an interval literal.
func iv(lo, hi int32) intervals.Interval { return intervals.Interval{Lo: lo, Hi: hi} }

// wantFinalLabels is the last column of Table 1 (canonical form).
func wantFinalLabels() map[int]intervals.Set {
	return map[int]intervals.Set{
		vA: {iv(1, 10)},
		vB: {iv(1, 5), iv(7, 7)},
		vC: {iv(1, 1), iv(5, 5), iv(10, 12)},
		vD: {iv(5, 5)},
		vE: {iv(1, 2)},
		vF: {iv(1, 1)},
		vG: {iv(1, 1), iv(6, 6), iv(10, 10)},
		vH: {iv(7, 7)},
		vI: {iv(1, 1), iv(10, 10)},
		vJ: {iv(1, 1), iv(6, 8), iv(10, 10)},
		vK: {iv(11, 11)},
		vL: {iv(3, 3), iv(7, 7)},
	}
}

func checkPaperLabeling(t *testing.T, l *Labeling, builder string) {
	t.Helper()
	for v, p := range wantPost() {
		if l.Post[v] != p {
			t.Errorf("%s: post(%c) = %d, want %d", builder, 'a'+v, l.Post[v], p)
		}
	}
	for v, want := range wantFinalLabels() {
		if !l.Label(v).Equal(want) {
			t.Errorf("%s: L(%c) = %v, want %v", builder, 'a'+v, l.Label(v), want)
		}
	}
}

func TestPaperTable1FastBuilder(t *testing.T) {
	g := paperGraph()
	l := BuildWithForest(g, paperForest(g), Options{})
	checkPaperLabeling(t, l, "Build")
}

func TestPaperTable1Algorithm1(t *testing.T) {
	g := paperGraph()
	l := BuildAlgorithm1WithForest(g, paperForest(g), Options{})
	checkPaperLabeling(t, l, "BuildAlgorithm1")
}

func TestPaperExample41Descendants(t *testing.T) {
	// Example 4.1: D(a) has posts in [1,10]; D(c) = {f, d, i, k, c}.
	g := paperGraph()
	l := BuildWithForest(g, paperForest(g), Options{})

	collect := func(v int) map[int]bool {
		m := make(map[int]bool)
		l.Descendants(v, func(u int32) bool {
			m[int(u)] = true
			return true
		})
		return m
	}
	dA := collect(vA)
	if len(dA) != 10 {
		t.Errorf("|D(a)| = %d, want 10", len(dA))
	}
	for _, v := range []int{vC, vK} {
		if dA[v] {
			t.Errorf("D(a) must not contain %c", 'a'+v)
		}
	}
	dC := collect(vC)
	wantC := []int{vF, vD, vI, vK, vC}
	if len(dC) != len(wantC) {
		t.Fatalf("D(c) = %v, want %v", dC, wantC)
	}
	for _, v := range wantC {
		if !dC[v] {
			t.Errorf("D(c) missing %c", 'a'+v)
		}
	}
	if got := l.Label(vC).Cardinality(); got != 5 {
		t.Errorf("|D(c)| = %d, want 5", got)
	}
}

func TestPaperReachability(t *testing.T) {
	// Lemma 3.1 on the running example: a reaches e and h (Example 2.3);
	// c reaches neither.
	g := paperGraph()
	for _, build := range []struct {
		name string
		l    *Labeling
	}{
		{"fast", BuildWithForest(g, paperForest(g), Options{})},
		{"algorithm1", BuildAlgorithm1WithForest(g, paperForest(g), Options{})},
	} {
		l := build.l
		for u := 0; u < 12; u++ {
			for v := 0; v < 12; v++ {
				want := g.CanReach(u, v)
				if got := l.Reach(u, v); got != want {
					t.Errorf("%s: Reach(%c,%c) = %v, want %v",
						build.name, 'a'+u, 'a'+v, got, want)
				}
			}
		}
	}
}

func TestPaperTable1UncompressedCount(t *testing.T) {
	// Before compression every label is a descendant singleton, so the
	// total equals Σ|D(v)| = 10+6+5+1+2+1+3+1+2+5+1+2 = 39. Both builders
	// must agree on the count even though they construct differently.
	g := paperGraph()
	want := int64(0)
	for v := 0; v < 12; v++ {
		r := g.Reachable(v)
		for _, ok := range r {
			if ok {
				want++
			}
		}
	}
	for _, build := range []struct {
		name string
		l    *Labeling
	}{
		{"fast", BuildWithForest(g, paperForest(g), Options{})},
		{"algorithm1", BuildAlgorithm1WithForest(g, paperForest(g), Options{})},
	} {
		if build.l.UncompressedCount != want {
			t.Errorf("%s: UncompressedCount = %d, want %d",
				build.name, build.l.UncompressedCount, want)
		}
		var labels int64
		for v := 0; v < 12; v++ {
			labels += int64(len(build.l.Label(v)))
		}
		if build.l.CompressedCount != labels {
			t.Errorf("%s: CompressedCount = %d, stored %d",
				build.name, build.l.CompressedCount, labels)
		}
	}
}

func TestPaperReversedLabeling(t *testing.T) {
	// Table 2: the reversed labeling covers ancestors. Check semantics
	// (coverage = ancestor set) rather than the paper's exact numbering,
	// which depends on the reversed forest choice.
	g := paperGraph()
	rev := Build(g.Reverse(), Options{})
	for u := 0; u < 12; u++ {
		for v := 0; v < 12; v++ {
			want := g.CanReach(u, v) // u reaches v  <=>  v's ancestors include u
			if got := rev.Reach(v, u); got != want {
				t.Errorf("reversed Reach(%c,%c) = %v, want %v", 'a'+v, 'a'+u, got, want)
			}
		}
	}
}
