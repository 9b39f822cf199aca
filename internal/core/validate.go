package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/labeling"
)

// ValidateEngine deep-checks the structural invariants of an engine:
// interval labelings (post-order bijection, well-formed and properly
// nested label sets, acyclic condensation) and spatial indexes (R-tree
// MBR containment and balance, k-d ordering). It returns nil for a
// well-formed engine and a descriptive error naming the engine and the
// first violated invariant otherwise.
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
		if err := validatePointIndex3(eng.points); err != nil {
			return fmt.Errorf("core: %s point index: %w", eng.Name(), err)
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

// validatePointIndex3 dispatches to the concrete 3D point backend.
func validatePointIndex3(p pointIndex3) error {
	if b, ok := p.(rtreeIndex); ok {
		return b.t.Validate()
	}
	// The grid backend has no ordering invariant to check.
	return nil
}
