package labeling

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// dagSpec is a quick-generated DAG description.
type dagSpec struct {
	N     uint8
	Pairs []uint16
}

func (s dagSpec) graph() *graph.Graph {
	n := int(s.N%30) + 1
	b := graph.NewBuilder(n)
	for _, p := range s.Pairs {
		u := int(p>>8) % n
		v := int(p&0xff) % n
		if u > v {
			u, v = v, u
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// TestQuickLemma31 is the paper's Lemma 3.1 as a property: for all
// vertex pairs, label containment of post(u) in L(v) coincides with
// reachability.
func TestQuickLemma31(t *testing.T) {
	f := func(s dagSpec) bool {
		g := s.graph()
		l := Build(g, Options{})
		for v := 0; v < g.NumVertices(); v++ {
			reach := g.Reachable(v)
			for u := 0; u < g.NumVertices(); u++ {
				if l.Reach(v, u) != reach[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickLabelCoverageEqualsDescendants checks the §4.1 identity
// |covered posts| = |D(v)|.
func TestQuickLabelCoverageEqualsDescendants(t *testing.T) {
	f := func(s dagSpec) bool {
		g := s.graph()
		l := Build(g, Options{})
		for v := 0; v < g.NumVertices(); v++ {
			want := int64(0)
			for _, ok := range g.Reachable(v) {
				if ok {
					want++
				}
			}
			if l.DescendantCount(v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickBuildersEquivalent asserts the fast builder and the faithful
// Algorithm 1 produce identical canonical labelings on arbitrary DAGs.
func TestQuickBuildersEquivalent(t *testing.T) {
	f := func(s dagSpec) bool {
		g := s.graph()
		forest := graph.NewSpanningForest(g, graph.ForestDFS)
		fast := BuildWithForest(g, forest, Options{})
		slow := BuildAlgorithm1WithForest(g, forest, Options{})
		for v := 0; v < g.NumVertices(); v++ {
			if !fast.Labels[v].Equal(slow.Labels[v]) {
				return false
			}
		}
		return fast.UncompressedCount == slow.UncompressedCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
