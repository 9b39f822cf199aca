package rangereach

import (
	"fmt"

	"repro/internal/core"
)

// Validate deep-checks the index's structural invariants: the interval
// labeling's post-order bijection onto 1..n, well-formed (lo ≤ hi,
// sorted, disjoint) and properly nested label sets, acyclicity of the
// SCC condensation, and the spatial index: R-tree MBR containment, or
// the order and bounds of 3DReach's tiles and their agreement with the
// network. 3DReach-Rev stores no labels, so its posts and its
// segments' tiles are checked against its reversed labeling rebuilt
// from the network. It returns nil for a well-formed index and a descriptive
// error naming the first violated invariant otherwise.
//
// Validation runs in time linear in the index size, except for
// 3DReach-Rev, where the rebuild costs about as much as its build.
// LoadIndex runs it automatically; tests and rrserve's -check flag call
// it directly.
func (idx *Index) Validate() error {
	if err := core.ValidateEngine(idx.engine); err != nil {
		return fmt.Errorf("rangereach: %w", err)
	}
	return nil
}

// Validate deep-checks the dynamic index's structural invariants: the
// live SCC condensation (component partition, sparse post uniqueness,
// label nesting, DAG-refcount agreement with the accumulated edges,
// acyclicity), the base R-tree, and the base/overlay/tombstone
// bookkeeping — every venue exactly once at z = post of its component.
// Call it from the writer, like any other access.
func (idx *DynamicIndex) Validate() error {
	if err := idx.engine.Validate(); err != nil {
		return fmt.Errorf("rangereach: %w", err)
	}
	return nil
}

// Validate deep-checks the snapshot's captured state: the captured
// labels and posts, the shared base tree and the overlay/tombstone
// bookkeeping. Snapshots are immutable, so it may run concurrently
// with anything — rrserve's -check-publish runs it on every publish.
func (s *DynamicSnapshot) Validate() error {
	if err := s.snap.Validate(); err != nil {
		return fmt.Errorf("rangereach: %w", err)
	}
	return nil
}
