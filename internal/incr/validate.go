package incr

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/rtree"
)

// Validate deep-checks every structural invariant of the patched
// index: the component partition, the sparse post assignment and label
// nesting, the DAG adjacency's refcount symmetry against the original
// edges, acyclicity, and the spatial decomposition (each live venue
// exactly once across base and overlay, at z = post of its component).
// It runs in O(V + E + labels + venues) and is called by the
// equivalence harness after every batch and by rrserve -check-publish
// on every published snapshot (via Snapshot.Validate).
func (x *Index) Validate() error {
	x.ensure()

	// Component partition: comp points into live slots, members lists
	// invert comp, every vertex appears exactly once.
	if len(x.comp) != x.n {
		return fmt.Errorf("incr: %d comp slots for %d vertices", len(x.comp), x.n)
	}
	live := 0
	counted := 0
	for c := range x.alive {
		if !x.alive[c] {
			if x.members[c] != nil {
				return fmt.Errorf("incr: dead component %d still has members", c)
			}
			continue
		}
		live++
		if len(x.members[c]) == 0 {
			return fmt.Errorf("incr: live component %d has no members", c)
		}
		for _, v := range x.members[c] {
			if v < 0 || int(v) >= x.n {
				return fmt.Errorf("incr: component %d member %d out of range", c, v)
			}
			if x.comp[v] != int32(c) {
				return fmt.Errorf("incr: vertex %d listed in component %d but comp says %d", v, c, x.comp[v])
			}
			counted++
		}
	}
	if live != x.liveComps {
		return fmt.Errorf("incr: %d live components counted but liveComps = %d", live, x.liveComps)
	}
	if counted != x.n {
		return fmt.Errorf("incr: members cover %d of %d vertices", counted, x.n)
	}

	// Posts, labels, edge nesting, acyclicity.
	if err := check.SparsePosts(x.alive, x.post, x.maxPost); err != nil {
		return err
	}
	at := func(c int) intervals.Set { return x.labels[c] }
	if err := check.SparseLabels(x.alive, x.post, at); err != nil {
		return err
	}
	if err := check.SparseEdges(x.alive, x.post, at, func(fn func(u, v int)) {
		for c := range x.outC {
			for d := range x.outC[c] {
				fn(c, int(d))
			}
		}
	}); err != nil {
		return err
	}

	// DAG refcounts: outC/inC mirror each other and count exactly the
	// cross-component original edges.
	want := make(map[int64]int32)
	for u, adj := range x.out {
		cu := x.comp[u]
		for _, v := range adj {
			if cv := x.comp[v]; cu != cv {
				want[int64(cu)<<32|int64(uint32(cv))]++
			}
		}
	}
	got := 0
	for c := range x.outC {
		for d, cnt := range x.outC[c] {
			if cnt <= 0 {
				return fmt.Errorf("incr: DAG edge (%d,%d) has refcount %d", c, d, cnt)
			}
			if x.inC[d][int32(c)] != cnt {
				return fmt.Errorf("incr: DAG edge (%d,%d) refcount %d but reverse says %d", c, d, cnt, x.inC[d][int32(c)])
			}
			if want[int64(c)<<32|int64(uint32(d))] != cnt {
				return fmt.Errorf("incr: DAG edge (%d,%d) refcount %d but %d original edges collapse onto it",
					c, d, cnt, want[int64(c)<<32|int64(uint32(d))])
			}
			got++
		}
	}
	if got != len(want) {
		return fmt.Errorf("incr: %d DAG edges present but %d expected from original adjacency", got, len(want))
	}

	// Spatial decomposition.
	if err := x.base.Validate(); err != nil {
		return err
	}
	return validateSpatial(x.n, x.spatial, x.comp, x.post, x.base, x.overlay, x.stale)
}

// validateSpatial checks that every spatial vertex is represented by
// exactly one live entry — in the base (not tombstoned) or in the
// overlay — carrying z = post(comp(v)), and that tombstones only cover
// vertices that do have a base entry.
func validateSpatial(n int, spatial []bool, comp, post []int32,
	base *rtree.Flat[geom.Box3], overlay []rtree.Entry[geom.Box3], stale map[int32]struct{}) error {
	liveEntry := make(map[int32]float64, len(overlay))
	inBase := make(map[int32]bool)
	ok := true
	var verr error
	base.All(func(e rtree.Entry[geom.Box3]) bool {
		if inBase[e.ID] {
			verr = fmt.Errorf("incr: venue %d appears twice in the base tree", e.ID)
			ok = false
			return false
		}
		inBase[e.ID] = true
		if _, dead := stale[e.ID]; dead {
			return true
		}
		liveEntry[e.ID] = e.Box.Min.Z
		return true
	})
	if !ok {
		return verr
	}
	for v := range stale {
		if !inBase[v] {
			return fmt.Errorf("incr: tombstone for venue %d which has no base entry", v)
		}
	}
	for _, e := range overlay {
		if _, dup := liveEntry[e.ID]; dup {
			return fmt.Errorf("incr: venue %d live in both base and overlay", e.ID)
		}
		liveEntry[e.ID] = e.Box.Min.Z
	}
	for v := 0; v < n; v++ {
		if !spatial[v] {
			continue
		}
		z, present := liveEntry[int32(v)]
		if !present {
			return fmt.Errorf("incr: venue %d has no live spatial entry", v)
		}
		if wantZ := float64(post[comp[v]]); z != wantZ {
			return fmt.Errorf("incr: venue %d entry at z=%v but post(comp)=%v", v, z, wantZ)
		}
		delete(liveEntry, int32(v))
	}
	if len(liveEntry) != 0 {
		return fmt.Errorf("incr: %d spatial entries for non-venue vertices", len(liveEntry))
	}
	return nil
}

// Validate deep-checks a snapshot: well-formed self-containing labels
// over the referenced components, distinct posts, base-tree structure
// and the exactly-once spatial decomposition at capture time.
func (s *Snapshot) Validate() error {
	n := s.q.n
	alive := make([]bool, len(s.post))
	for v := 0; v < n; v++ {
		c := s.q.comp[v]
		if c < 0 || int(c) >= len(s.post) {
			return fmt.Errorf("incr: snapshot comp[%d] = %d out of range [0,%d)", v, c, len(s.post))
		}
		alive[c] = true
	}
	maxPost := int32(0)
	for c, a := range alive {
		if a && s.post[c] > maxPost {
			maxPost = s.post[c]
		}
	}
	// A snapshot carries no members or edges; dead slots may retain
	// posts from before capture, so restrict the post checks to the
	// referenced components.
	seen := make(map[int32]int)
	for c, a := range alive {
		if !a {
			continue
		}
		p := s.post[c]
		if p < 1 {
			return fmt.Errorf("incr: snapshot component %d has post %d", c, p)
		}
		if prev, dup := seen[p]; dup {
			return fmt.Errorf("incr: snapshot components %d and %d share post %d", prev, c, p)
		}
		seen[p] = c
	}
	if err := check.SparseLabels(alive, s.post, func(c int) intervals.Set { return s.q.labels[c] }); err != nil {
		return err
	}
	if err := s.q.base.Validate(); err != nil {
		return err
	}
	return validateSpatial(n, s.spatial, s.q.comp, s.post, s.q.base, s.q.overlay, s.q.stale)
}
