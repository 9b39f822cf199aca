package incr

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/rtree"
)

// Validate deep-checks every structural invariant of the patched
// index: the component partition (well-formed, and equal to the graph's
// strongly connected components), the sparse post assignment and label
// nesting, the DAG adjacency's order and refcount symmetry against the
// original edges, acyclicity, and the spatial decomposition (each live
// venue exactly once across base and overlay, at z = post of its
// component). It runs in O(V + E + labels + venues) and is called by
// the equivalence harness after every batch and by rrserve
// -check-publish on every published snapshot (via Snapshot.Validate).
func (x *Index) Validate() error {
	x.ensure()
	comp, post := x.comp.flat(), x.post.flat()

	// Component partition: comp points into live slots, members lists
	// invert comp, every vertex appears exactly once.
	if len(comp) != x.n {
		return fmt.Errorf("incr: %d comp slots for %d vertices", len(comp), x.n)
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
			if comp[v] != int32(c) {
				return fmt.Errorf("incr: vertex %d listed in component %d but comp says %d", v, c, comp[v])
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
	if err := x.validatePartition(comp); err != nil {
		return err
	}

	// Posts, labels, edge nesting, acyclicity.
	if err := check.SparsePosts(x.alive, post, x.maxPost); err != nil {
		return err
	}
	at := func(c int) intervals.Set { return x.labels.at(int32(c)) }
	if err := check.SparseLabels(x.alive, post, at); err != nil {
		return err
	}
	if err := check.SparseEdges(x.alive, post, at, func(fn func(u, v int)) {
		for c, row := range x.outC {
			for _, e := range row {
				fn(c, int(e.to))
			}
		}
	}); err != nil {
		return err
	}

	// DAG refcounts: outC/inC are sorted rows that mirror each other and
	// count exactly the cross-component original edges.
	want := make(map[int64]int32)
	for u, adj := range x.out {
		cu := comp[u]
		for _, v := range adj {
			if cv := comp[v]; cu != cv {
				want[int64(cu)<<32|int64(uint32(cv))]++
			}
		}
	}
	got, reverse := 0, 0
	for c := range x.outC {
		for _, row := range []adjRow{x.outC[c], x.inC[c]} {
			for i := 1; i < len(row); i++ {
				if row[i-1].to >= row[i].to {
					return fmt.Errorf("incr: DAG adjacency row of component %d is not strictly ascending: %v", c, row)
				}
			}
		}
		reverse += len(x.inC[c])
		for _, e := range x.outC[c] {
			if e.cnt <= 0 {
				return fmt.Errorf("incr: DAG edge (%d,%d) has refcount %d", c, e.to, e.cnt)
			}
			var back int32
			if j, ok := x.inC[e.to].find(int32(c)); ok {
				back = x.inC[e.to][j].cnt
			}
			if back != e.cnt {
				return fmt.Errorf("incr: DAG edge (%d,%d) refcount %d but reverse says %d", c, e.to, e.cnt, back)
			}
			if w := want[int64(c)<<32|int64(uint32(e.to))]; w != e.cnt {
				return fmt.Errorf("incr: DAG edge (%d,%d) refcount %d but %d original edges collapse onto it",
					c, e.to, e.cnt, w)
			}
			got++
		}
	}
	if got != len(want) || reverse != got {
		return fmt.Errorf("incr: %d DAG edges present (%d in the reverse rows) but %d expected from original adjacency",
			got, reverse, len(want))
	}

	// Spatial decomposition.
	if err := x.base.Validate(); err != nil {
		return err
	}
	return validateSpatial(x.n, x.spatial.flat(), comp, post, x.base, x.overlay, x.stale)
}

// validatePartition checks comp against the strongly connected
// components of the live adjacency, computed from scratch, up to
// renaming. The other checks cannot see a partition that is too coarse
// — two components glued into one keep consistent refcounts, nested
// labels and an acyclic DAG while answering with false positives —
// which is exactly what a wrong split certificate would produce.
func (x *Index) validatePartition(comp []int32) error {
	scc, count := x.liveGraph().SCCs()
	if count != x.liveComps {
		return fmt.Errorf("incr: %d live components but the graph has %d strongly connected components", x.liveComps, count)
	}
	// With equal counts, one consistent direction makes the map a bijection.
	rename := make([]int32, count)
	for i := range rename {
		rename[i] = -1
	}
	for v, s := range scc {
		if rename[s] == -1 {
			rename[s] = comp[v]
		} else if rename[s] != comp[v] {
			return fmt.Errorf("incr: vertices of one strongly connected component lie in components %d and %d (vertex %d)",
				rename[s], comp[v], v)
		}
	}
	return nil
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
	comp, post := s.q.comp.flat(), s.post.flat()
	alive := make([]bool, len(post))
	for v := 0; v < n; v++ {
		c := comp[v]
		if c < 0 || int(c) >= len(post) {
			return fmt.Errorf("incr: snapshot comp[%d] = %d out of range [0,%d)", v, c, len(post))
		}
		alive[c] = true
	}
	// A snapshot carries no members or edges; dead slots may retain
	// posts from before capture, so restrict the post checks to the
	// referenced components.
	seen := make(map[int32]int)
	for c, a := range alive {
		if !a {
			continue
		}
		p := post[c]
		if p < 1 {
			return fmt.Errorf("incr: snapshot component %d has post %d", c, p)
		}
		if prev, dup := seen[p]; dup {
			return fmt.Errorf("incr: snapshot components %d and %d share post %d", prev, c, p)
		}
		seen[p] = c
	}
	if err := check.SparseLabels(alive, post, func(c int) intervals.Set { return s.q.labels.at(int32(c)) }); err != nil {
		return err
	}
	if err := s.q.base.Validate(); err != nil {
		return err
	}
	return validateSpatial(n, s.spatial.flat(), comp, post, s.q.base, s.q.overlay, s.q.stale)
}
