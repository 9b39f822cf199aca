package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/labeling"
	"repro/internal/rtree"
)

// ValidateEngine deep-checks the structural invariants of an engine:
// interval labelings (post-order bijection, well-formed and properly
// nested label sets over posts or, for 3DReach, spatial ranks — see
// check.Labeling — acyclic condensation) and spatial indexes (R-tree
// MBR containment and balance; 3DReach's point tiles, against their own
// order and bounds and against the network and labeling; 3DReach's
// boxes, against the network and labeling; 3DReach-Rev's posts and
// segments, against its reversed labeling rebuilt). It returns
// nil for a well-formed engine and a descriptive error naming the
// engine and the first violated invariant otherwise.
//
// GeoReach dispatches to the SPA-Graph's own Validate; engines whose
// internals are opaque at this layer (the non-interval reachability
// indexes of SpaReach) validate what is visible — their spatial side —
// and trust their own package tests for the rest.
func ValidateEngine(e Engine) error {
	switch eng := e.(type) {
	case *ThreeDReach:
		if err := check.Labeling(eng.prep.DAG, eng.l); err != nil {
			return fmt.Errorf("core: %s labeling: %w", eng.Name(), err)
		}
		if eng.points != nil {
			if err := validateTiles(eng); err != nil {
				return fmt.Errorf("core: %s point index: %w", eng.Name(), err)
			}
		}
		if eng.boxes != nil {
			if err := validateBoxes(eng); err != nil {
				return fmt.Errorf("core: %s box index: %w", eng.Name(), err)
			}
		}
	case *ThreeDReachRev:
		if err := validateRev(eng); err != nil {
			return fmt.Errorf("core: %s segment index: %w", eng.Name(), err)
		}
	case *SocReach:
		if err := check.Labeling(eng.prep.DAG, eng.l); err != nil {
			return fmt.Errorf("core: %s labeling: %w", eng.Name(), err)
		}
	case *SpaReach:
		if eng.tree != nil {
			if err := eng.tree.Validate(); err != nil {
				return fmt.Errorf("core: %s spatial index: %w", eng.Name(), err)
			}
		}
		if il, ok := eng.reach.(interface{ Labeling() *labeling.Labeling }); ok {
			if err := check.Labeling(eng.prep.DAG, il.Labeling()); err != nil {
				return fmt.Errorf("core: %s labeling: %w", eng.Name(), err)
			}
		}
	case *GeoReach:
		if err := eng.idx.Validate(); err != nil {
			return fmt.Errorf("core: %s SPA-Graph: %w", eng.Name(), err)
		}
	case *Auto:
		for _, m := range eng.members {
			if err := ValidateEngine(m); err != nil {
				return fmt.Errorf("core: Auto member: %w", err)
			}
		}
	}
	// NaiveBFS and unknown engines: nothing checkable here.
	return nil
}

// validateTiles checks the tiles' own invariants, then that they hold
// every spatial vertex of the network exactly once, at its network
// point, with its component's key: the post, or the rank when the
// labels are rank-keyed.
func validateTiles(e *ThreeDReach) error {
	if err := e.points.Validate(); err != nil {
		return err
	}
	net := e.prep.Net
	c := e.points.Columns()
	keys := e.l.Keys()
	seen := make([]bool, net.NumVertices())
	for k, id := range c.ID {
		if id < 0 || int(id) >= len(seen) || !net.Spatial[id] {
			return fmt.Errorf("point %d has id %d, not a spatial vertex", k, id)
		}
		if seen[id] {
			return fmt.Errorf("vertex %d appears twice", id)
		}
		seen[id] = true
		if p := net.Points[id]; c.X[k] != p.X || c.Y[k] != p.Y {
			return fmt.Errorf("vertex %d is indexed at (%g, %g), the network has it at %v", id, c.X[k], c.Y[k], p)
		}
		if want := keys[e.prep.CompOf(int(id))]; c.Post[k] != want {
			return fmt.Errorf("vertex %d is indexed at key %d, its component's is %d", id, c.Post[k], want)
		}
	}
	for v, s := range net.Spatial {
		if s && !seen[v] {
			return fmt.Errorf("spatial vertex %d is missing", v)
		}
	}
	return nil
}

// validateBoxes checks the box tree's structure and bounds, then that
// its leaf entries are the network's: every spatial vertex once, its
// geometry at its component's key. A box whose z-range is swapped with
// another inside their node's bound passes the first check and fails
// the second.
func validateBoxes(e *ThreeDReach) error {
	if err := e.boxes.Validate(); err != nil {
		return err
	}
	return sameEntries(e.boxes, boxEntries(e.prep, e.l.Keys()), "box", "the network")
}

// validateRev checks what a 3DReach-Rev query reads: the tree's
// structure and bounds, then, against the reversed labeling rebuilt
// from the network, every component's post and the tree's leaf entries,
// compared as a multiset because the bulk load reorders them. A segment
// whose z-range is damaged inside its node's bound passes the first
// check and fails the last. The rebuild uses every CPU, as a build does
// by default.
func validateRev(e *ThreeDReachRev) error {
	if err := e.tree.Validate(); err != nil {
		return err
	}
	rev := reversedLabeling(e.prep, runtime.NumCPU())
	if len(e.post) != len(rev.Post) {
		return fmt.Errorf("%d posts for %d components", len(e.post), len(rev.Post))
	}
	for c, p := range rev.Post {
		if e.post[c] != p {
			return fmt.Errorf("component %d has post %d, the reversed labeling gives %d", c, e.post[c], p)
		}
	}
	return sameEntries(e.tree, revEntries(e.prep, rev), "segment", "the reversed labeling")
}

// sameEntries compares t's leaf entries with want as multisets, because
// the bulk load reorders them; what names an entry and source what want
// was derived from, for the error. No two derived entries share an id
// and a low z (a vertex has one box, and a component's reversed labels
// are disjoint), so sorted by those two keys equal multisets line up
// entry for entry. want is derived in that order, so its sort is one
// pass.
func sameEntries(t *rtree.Flat[geom.Box3], want []rtree.Entry[geom.Box3], what, source string) error {
	if t.Len() != len(want) {
		return fmt.Errorf("tree holds %d %ss, %s gives %d", t.Len(), what, source, len(want))
	}
	got := make([]rtree.Entry[geom.Box3], 0, len(want))
	t.All(func(en rtree.Entry[geom.Box3]) bool {
		got = append(got, en)
		return true
	})
	byIDThenZ := func(a, b rtree.Entry[geom.Box3]) int {
		if a.ID != b.ID {
			return cmp.Compare(a.ID, b.ID)
		}
		return cmp.Compare(a.Box.Min.Z, b.Box.Min.Z)
	}
	slices.SortFunc(got, byIDThenZ)
	slices.SortFunc(want, byIDThenZ)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s of id %d spans %v, %s gives id %d %v",
				what, got[i].ID, got[i].Box, source, want[i].ID, want[i].Box)
		}
	}
	return nil
}
