package core

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/labeling"
)

// ValidateEngine deep-checks the structural invariants of an engine:
// interval labelings (post-order bijection, well-formed and properly
// nested label sets over posts or, for 3DReach, spatial ranks — see
// check.Labeling — acyclic condensation) and spatial indexes (R-tree
// MBR containment and balance; 3DReach's tiles, against their own order
// and bounds and against the network and labeling; 3DReach-Rev's posts
// and segments, against its reversed labeling rebuilt). It returns
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
		if err := validateTiles(eng); err != nil {
			return fmt.Errorf("core: %s tiles: %w", eng.Name(), err)
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
		if err := ValidateEngine(eng.route); err != nil {
			return fmt.Errorf("core: Auto member: %w", err)
		}
	}
	// NaiveBFS and unknown engines: nothing checkable here.
	return nil
}

// validateTiles checks the tiles' own invariants, then that they hold
// every spatial vertex of the network exactly once, with its network
// geometry and its component's key: the post, or the rank when the
// labels are rank-keyed.
func validateTiles(e *ThreeDReach) error {
	if err := e.tiles.Validate(); err != nil {
		return err
	}
	net := e.prep.Net
	c := e.tiles.Columns()
	off := len(c.X) - len(c.Post)
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
		if g, want := (geom.Rect{Min: geom.Pt(c.X[k], c.Y[k]), Max: geom.Pt(c.X[off+k], c.Y[off+k])}), net.GeometryOf(int(id)); g != want {
			return fmt.Errorf("vertex %d is indexed at %v, the network has it at %v", id, g, want)
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

// validateRev checks what a 3DReach-Rev query reads against the
// reversed labeling rebuilt from the network: every component's post,
// then the tiles' own invariants, then the tiles' columns and the high
// ends against a rebuild of the segments, column for column, which
// tiles.New's determinism allows. A lowered high end, or a key raised
// inside its cell's order, passes tiles.Validate and fails the last
// check. The rebuild uses every CPU, as a build does by default.
func validateRev(e *ThreeDReachRev) error {
	rev := reversedLabeling(e.prep, runtime.NumCPU())
	if len(e.post) != len(rev.Post) {
		return fmt.Errorf("%d posts for %d components", len(e.post), len(rev.Post))
	}
	for c, p := range rev.Post {
		if e.post[c] != p {
			return fmt.Errorf("component %d has post %d, the reversed labeling gives %d", c, e.post[c], p)
		}
	}
	if err := e.tiles.Validate(); err != nil {
		return err
	}
	ts, hi := revSegments(e.prep, rev)
	got, want := e.tiles.Columns(), ts.Columns()
	for _, col := range []struct {
		name string
		same bool
	}{
		{"slab bounds", slices.Equal(got.SlabX, want.SlabX)},
		{"slab offsets", slices.Equal(got.SlabCells, want.SlabCells)},
		{"cell bounds", slices.Equal(got.CellMBR, want.CellMBR)},
		{"cell offsets", slices.Equal(got.CellPoints, want.CellPoints)},
		{"x columns", slices.Equal(got.X, want.X)},
		{"y columns", slices.Equal(got.Y, want.Y)},
		{"keys", slices.Equal(got.Post, want.Post)},
		{"ids", slices.Equal(got.ID, want.ID)},
		{"high ends", slices.Equal(e.hi, hi)},
	} {
		if !col.same {
			return fmt.Errorf("%s differ from those of the segments the reversed labeling gives", col.name)
		}
	}
	return nil
}
