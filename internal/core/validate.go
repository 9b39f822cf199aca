package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/labeling"
)

// ValidateEngine deep-checks the structural invariants of an engine:
// interval labelings (post-order bijection, well-formed and properly
// nested label sets over posts or, for 3DReach, spatial ranks — see
// check.Labeling — acyclic condensation) and spatial indexes (R-tree
// MBR containment and balance; 3DReach's point tiles, against their own
// order and bounds and against the network and labeling). It returns
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
			if err := eng.boxes.Validate(); err != nil {
				return fmt.Errorf("core: %s box index: %w", eng.Name(), err)
			}
		}
	case *ThreeDReachRev:
		// The labeling is built over the reversed condensation.
		if err := check.Labeling(eng.prep.DAG.Reverse(), eng.rev); err != nil {
			return fmt.Errorf("core: %s labeling: %w", eng.Name(), err)
		}
		if eng.tree != nil {
			if err := eng.tree.Validate(); err != nil {
				return fmt.Errorf("core: %s segment index: %w", eng.Name(), err)
			}
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
