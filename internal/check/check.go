// Package check implements deep structural validators for the index
// data structures: the interval labeling's post-order bijection, label
// well-formedness and nesting, and condensation acyclicity. The
// spatial-index validators live with their structures
// (rtree.Flat.Validate) because they need node internals; this package
// holds everything expressible through exported surfaces.
//
// Validators return nil for a well-formed structure and a descriptive
// error naming the first violated invariant otherwise. They run in
// O(V + E + labels) and are cheap enough to call after every build,
// load and update batch in tests (and behind rrserve's -check flag).
package check

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/intervals"
	"repro/internal/labeling"
)

// Posts validates that post and order describe a 1-based post-order
// bijection: every post number lies in [1, n], and order inverts post.
func Posts(post, order []int32) error {
	n := len(post)
	if len(order) != n {
		return fmt.Errorf("check: %d post numbers but %d order slots", n, len(order))
	}
	for v, p := range post {
		if p < 1 || int(p) > n {
			return fmt.Errorf("check: vertex %d has post %d outside [1,%d]", v, p, n)
		}
		if order[p-1] != int32(v) {
			return fmt.Errorf("check: post bijection broken: post(%d) = %d but order[%d] = %d",
				v, p, p-1, order[p-1])
		}
	}
	return nil
}

// Set validates one label set: every interval has lo ≤ hi (a "swapped"
// interval inverts the containment test) and intervals are sorted and
// disjoint. Adjacent-but-unmerged intervals are tolerated — the
// compression ablation produces them deliberately, and the containment
// queries stay correct.
func Set(v int, s intervals.Set) error {
	for i, iv := range s {
		if iv.Lo > iv.Hi {
			return fmt.Errorf("check: vertex %d: interval %d [%d,%d] is swapped (lo > hi)", v, i, iv.Lo, iv.Hi)
		}
		if i > 0 && iv.Lo <= s[i-1].Hi {
			return fmt.Errorf("check: vertex %d: intervals %d and %d overlap or are out of order", v, i-1, i)
		}
	}
	return nil
}

// labelSource abstracts the two labeling representations.
type labelSource func(v int) intervals.Set

// labels validates the per-vertex label sets against their keys (what
// names the key in messages): well-formed sets, each containing the
// vertex's own key (v is its own descendant). A key of 0 — a vertex a
// rank-keyed labeling does not index — requires nothing.
func labels(keys []int32, what string, at labelSource) error {
	for v, key := range keys {
		s := at(v)
		if err := Set(v, s); err != nil {
			return err
		}
		if key != 0 && !s.ContainsCanonical(key) {
			return fmt.Errorf("check: vertex %d: label set %v does not contain own %s %d", v, s, what, key)
		}
	}
	return nil
}

// edgeNesting validates Lemma 3.1's closure property over one edge
// (u, v): since everything v reaches u also reaches, L(u) must cover
// L(v) — in particular it must contain v's key, if v has one.
func edgeNesting(u, v int, keys []int32, what string, at labelSource) error {
	lu, lv := at(u), at(v)
	if keys[v] != 0 && !lu.ContainsCanonical(keys[v]) {
		return fmt.Errorf("check: edge (%d,%d): L(%d) does not contain %s(%d) = %d", u, v, u, what, v, keys[v])
	}
	if !lu.CoversCanonical(lv) {
		return fmt.Errorf("check: edge (%d,%d): L(%d) does not cover L(%d); labels are not properly nested",
			u, v, u, v)
	}
	return nil
}

// Labeling validates l against the condensation DAG it was built over:
// the DAG is acyclic, post numbers are a bijection onto 1..n, label
// sets are well-formed and self-containing, and every edge's labels
// nest properly. A rank-keyed labeling is checked over its keys (see
// labeling.Labeling.Keys): a spatial vertex's label contains its own
// rank, a vertex that is not spatial needs contain nothing, and L(u)
// contains rank(v) over an edge (u, v) whenever v is spatial.
func Labeling(g *graph.Graph, l *labeling.Labeling) error {
	n := g.NumVertices()
	if len(l.Post) != n || len(l.Order) != n || len(l.Labels) != n {
		return fmt.Errorf("check: labeling sized %d/%d/%d for a %d-vertex DAG",
			len(l.Post), len(l.Order), len(l.Labels), n)
	}
	what := "post"
	if l.Spatial != nil {
		if len(l.Spatial) != n {
			return fmt.Errorf("check: rank-keyed labeling marks %d spatial slots for a %d-vertex DAG", len(l.Spatial), n)
		}
		what = "rank"
	}
	if !g.IsDAG() {
		return fmt.Errorf("check: condensation contains a cycle")
	}
	if err := Posts(l.Post, l.Order); err != nil {
		return err
	}
	keys := l.Keys()
	at := func(v int) intervals.Set { return l.Labels[v] }
	if err := labels(keys, what, at); err != nil {
		return err
	}
	var firstErr error
	g.Edges(func(u, v int) {
		if firstErr == nil {
			firstErr = edgeNesting(u, v, keys, what, at)
		}
	})
	return firstErr
}
