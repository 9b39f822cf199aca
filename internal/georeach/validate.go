package georeach

import (
	"fmt"
	"slices"

	"repro/internal/grid"
)

// Validate deep-checks the SPA-Graph invariants the §2.2.2 pruning
// rules are sound against:
//
//   - GeoB is consistent (set whenever the component has own spatial
//     members) and monotone over DAG edges;
//   - the class lattice is monotone: a G-vertex only has G successors,
//     an R-vertex never has a B successor with spatial reach;
//   - every member geometry lies inside the grid hierarchy's space —
//     the property whose violation lets CoverRect clamp a real point
//     into the wrong cell (the bug the parity fuzzer found);
//   - a G-vertex's ReachGrid is non-empty, holds only well-formed
//     cells, and covers its own members' seed cells and every
//     successor ReachGrid (directly or through a coarser ancestor);
//   - an R-vertex's RMBR contains its own member geometries and every
//     spatial-reaching successor's RMBR.
//
// It returns nil for a sound SPA-Graph and a descriptive error naming
// the first violated invariant otherwise.
func (idx *Index) Validate() error {
	n := idx.prep.NumComponents()
	if len(idx.flags) != 2*n || len(idx.rmbr) != 4*n || len(idx.gridOff) != n+1 {
		return fmt.Errorf("georeach: columns sized %d/%d/%d for %d components",
			len(idx.flags), len(idx.rmbr), len(idx.gridOff), n)
	}
	space := idx.h.Space()
	for v := 0; v < n; v++ {
		kind, cells := idx.kindOf(v), idx.cells(v)
		members := idx.prep.SpatialMembers[v]
		if len(members) > 0 && !idx.reaches(v) {
			return fmt.Errorf("georeach: component %d has %d spatial members but GeoB unset", v, len(members))
		}
		if !idx.reaches(v) && kind != BVertex {
			return fmt.Errorf("georeach: component %d has kind %d without spatial reach", v, kind)
		}
		if kind == GVertex {
			if len(cells) == 0 {
				return fmt.Errorf("georeach: G-vertex %d has an empty ReachGrid", v)
			}
			for _, key := range cells {
				c := grid.CellFromKey(key)
				if int(c.Level) >= idx.h.Levels() {
					return fmt.Errorf("georeach: G-vertex %d cell %v above top level %d", v, c, idx.h.Levels()-1)
				}
				if side := idx.h.SideCells(c.Level); c.X < 0 || c.X >= side || c.Y < 0 || c.Y >= side {
					return fmt.Errorf("georeach: G-vertex %d cell %v outside the %d-cell grid", v, c, side)
				}
			}
		} else if len(cells) != 0 {
			return fmt.Errorf("georeach: non-G component %d stores a ReachGrid", v)
		}

		for _, m := range members {
			g := idx.prep.GeometryOf(m)
			if !space.ContainsRect(g) {
				return fmt.Errorf("georeach: member %d of component %d at %v outside the grid space %v",
					m, v, g, space)
			}
			switch kind {
			case GVertex:
				uncovered := grid.Cell{}
				ok := true
				idx.h.CoverRect(g, 0, func(c grid.Cell) {
					if ok && !idx.coveredBy(c, cells) {
						ok, uncovered = false, c
					}
				})
				if !ok {
					return fmt.Errorf("georeach: member %d of G-vertex %d seeds cell %v missing from its ReachGrid",
						m, v, uncovered)
				}
			case RVertex:
				if !idx.rmbrOf(v).ContainsRect(g) {
					return fmt.Errorf("georeach: member %d of R-vertex %d at %v outside its RMBR %v",
						m, v, g, idx.rmbrOf(v))
				}
			}
		}

		for _, w := range idx.prep.DAG.Out(v) {
			u := int(w)
			if !idx.reaches(u) {
				continue
			}
			if !idx.reaches(v) {
				return fmt.Errorf("georeach: GeoB not monotone: component %d unset with spatial-reaching successor %d", v, u)
			}
			switch kind {
			case GVertex:
				if idx.kindOf(u) != GVertex {
					return fmt.Errorf("georeach: G-vertex %d has non-G successor %d (kind %d)", v, u, idx.kindOf(u))
				}
				for _, key := range idx.cells(u) {
					if c := grid.CellFromKey(key); !idx.coveredBy(c, cells) {
						return fmt.Errorf("georeach: successor %d cell %v missing from G-vertex %d's ReachGrid", u, c, v)
					}
				}
			case RVertex:
				if idx.kindOf(u) == BVertex {
					return fmt.Errorf("georeach: R-vertex %d has B-vertex successor %d with spatial reach", v, u)
				}
				if !idx.rmbrOf(v).ContainsRect(idx.rmbrOf(u)) {
					return fmt.Errorf("georeach: successor %d RMBR %v outside R-vertex %d's RMBR %v",
						u, idx.rmbrOf(u), v, idx.rmbrOf(v))
				}
			}
		}
	}
	return nil
}

// coveredBy reports whether c or one of its coarser ancestors is in the
// ascending key run.
func (idx *Index) coveredBy(c grid.Cell, run []uint64) bool {
	for {
		if _, found := slices.BinarySearch(run, c.Key()); found {
			return true
		}
		p, ok := idx.h.Parent(c)
		if !ok {
			return false
		}
		c = p
	}
}
