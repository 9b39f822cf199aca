package check_test

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/intervals"
	"repro/internal/labeling"
)

// diamond builds the 6-vertex DAG 0→{1,2}, 1→3, 2→3, 3→4, plus the
// isolated vertex 5.
func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("want error containing %q, got: %v", substr, err)
	}
}

func TestLabelingValid(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{})
	if err := check.Labeling(g, l); err != nil {
		t.Fatalf("valid labeling rejected: %v", err)
	}
}

// TestLabelingRankKeyed checks a rank-keyed labeling over its ranks:
// valid as built, with the empty labels of vertices that reach nothing
// spatial; refused when a spatial vertex's rank leaves a predecessor's
// label, or when the mask does not fit the DAG.
func TestLabelingRankKeyed(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{Spatial: []bool{false, false, true, false, true, false}})
	if len(l.Labels[5]) != 0 {
		t.Fatalf("the isolated user's label is %v, want empty", l.Labels[5])
	}
	if err := check.Labeling(g, l); err != nil {
		t.Fatalf("valid rank-keyed labeling rejected: %v", err)
	}
	// L(0) holds rank(2) and rank(4): dropping rank(2) breaks the edge (0,2).
	keys := l.Keys()
	l.Labels[0] = intervals.Set{{Lo: keys[4], Hi: keys[4]}}
	wantErr(t, check.Labeling(g, l), "does not contain rank")
	l.Spatial = l.Spatial[:5]
	wantErr(t, check.Labeling(g, l), "spatial slots")
}

func TestLabelingSkipCompressionValid(t *testing.T) {
	// The compression ablation leaves adjacent singleton labels; they
	// are well-formed, just not minimal.
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{SkipCompression: true})
	if err := check.Labeling(g, l); err != nil {
		t.Fatalf("uncompressed labeling rejected: %v", err)
	}
}

func TestLabelingSwappedInterval(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{})
	l.Labels[0][0] = intervals.Interval{Lo: 5, Hi: 2}
	wantErr(t, check.Labeling(g, l), "swapped")
}

func TestLabelingOverlappingIntervals(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{})
	// Vertex 0 reaches everything, so its set covers 1..post(0); bolt an
	// overlapping second interval onto whichever vertex has one.
	l.Labels[0] = intervals.Set{{Lo: 1, Hi: 4}, {Lo: 3, Hi: 6}}
	wantErr(t, check.Labeling(g, l), "overlap")
}

func TestLabelingMissingSelf(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{})
	// Vertex 4 is a sink: its label is exactly its own post. Point it
	// somewhere else.
	p := l.Post[4]
	other := p%int32(len(l.Post)) + 1
	if other == p {
		other = p - 1
	}
	l.Labels[4] = intervals.Set{{Lo: other, Hi: other}}
	wantErr(t, check.Labeling(g, l), "own post")
}

func TestLabelingBrokenBijection(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{})
	l.Post[0] = l.Post[1]
	wantErr(t, check.Labeling(g, l), "bijection")
}

func TestLabelingPostOutOfRange(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{})
	l.Post[2] = int32(len(l.Post)) + 7
	wantErr(t, check.Labeling(g, l), "outside")
}

func TestLabelingNonNestedChild(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{})
	// Shrink L(0) to its own post only: the edge (0,1) now has a child
	// label not contained in the parent's.
	l.Labels[0] = intervals.Set{{Lo: l.Post[0], Hi: l.Post[0]}}
	wantErr(t, check.Labeling(g, l), "does not contain post")
}

func TestLabelingPartialCover(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{})
	// Keep post(1) in L(0) but drop the rest of L(1): containment of
	// the child's post alone is not proper nesting.
	s := intervals.Set{{Lo: l.Post[1], Hi: l.Post[1]}}
	if l.Post[0] != l.Post[1] {
		s = s.Add(l.Post[0], l.Post[0])
	}
	l.Labels[0] = s.Compress()
	wantErr(t, check.Labeling(g, l), "not properly nested")
}

func TestLabelingCycle(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{})
	// Validate the same labeling against a cyclic "condensation" of the
	// same order: the acyclicity check must fire first.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	wantErr(t, check.Labeling(b.Build(), l), "cycle")
}

func TestLabelingSizeMismatch(t *testing.T) {
	g := diamond(t)
	l := labeling.Build(g, labeling.Options{})
	b := graph.NewBuilder(7)
	wantErr(t, check.Labeling(b.Build(), l), "sized")
}

func TestPostsValid(t *testing.T) {
	if err := check.Posts([]int32{2, 1, 3}, []int32{1, 0, 2}); err != nil {
		t.Fatalf("valid posts rejected: %v", err)
	}
	wantErr(t, check.Posts([]int32{2, 1}, []int32{1}), "order slots")
	wantErr(t, check.Posts([]int32{1, 1}, []int32{0, 0}), "bijection")
}
