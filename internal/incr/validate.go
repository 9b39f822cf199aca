package incr

import (
	"cmp"
	"fmt"

	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/intervals"
)

// Validate deep-checks every structural invariant of the patched
// index: the component partition (well-formed, and equal to the graph's
// strongly connected components), the sparse post assignment, label
// nesting and exactness on live posts, the DAG adjacency's order and
// refcount symmetry against the original edges, acyclicity, the counted
// label (validateCover), and the spatial decomposition
// (validateSpatial). Apart from the exactness check, which merges each
// component's successor labels as a relabel would, it runs in
// O(V + E + labels + venues). It is called by the
// equivalence harness after every batch; rrserve -check-publish runs
// Snapshot.Validate on every published snapshot.
func (x *Index) Validate() error {
	x.ensure()
	comp, post := x.comp.flat(), x.post.flat()

	// Component partition: comp points into live slots, members lists
	// invert comp and the position index inverts them, every vertex
	// appears exactly once.
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
		for i, v := range x.members[c] {
			if v < 0 || int(v) >= x.n {
				return fmt.Errorf("incr: component %d member %d out of range", c, v)
			}
			if comp[v] != int32(c) {
				return fmt.Errorf("incr: vertex %d listed in component %d but comp says %d", v, c, comp[v])
			}
			if x.memberPos[v] != int32(i) {
				return fmt.Errorf("incr: vertex %d is member %d of component %d but its position index says %d", v, i, c, x.memberPos[v])
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
	if err := x.validateExactLabels(post); err != nil {
		return err
	}
	if err := x.validateCover(); err != nil {
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

	return validateSpatial(x.view(), x.spatial.flat(), comp, post, x.geo)
}

// validateExactLabels checks that each live label holds exactly the
// live posts its component reaches: those of {post(c)} ∪ ⋃ L(d) over
// c's DAG successors d. The nesting checks give ⊇, so equal counts of
// live posts make the two sets agree on every live post. Dead posts may
// linger in a label; the numbering is sparse.
func (x *Index) validateExactLabels(post []int32) error {
	below := make([]int32, x.maxPost+1) // below[p]: live posts in [1, p]
	for c, alive := range x.alive {
		if alive {
			below[post[c]]++
		}
	}
	for p := 1; p < len(below); p++ {
		below[p] += below[p-1]
	}
	livePosts := func(s intervals.Set) int32 {
		n := int32(0)
		for _, iv := range s {
			if lo, hi := max(iv.Lo, 1), min(iv.Hi, x.maxPost); lo <= hi {
				n += below[hi] - below[lo-1]
			}
		}
		return n
	}
	var sets []intervals.Set
	for c, alive := range x.alive {
		if !alive {
			continue
		}
		sets = append(sets[:0], intervals.Singleton(post[c]))
		for _, e := range x.outC[c] {
			sets = append(sets, x.labels.at(e.to))
		}
		if got, want := livePosts(x.labels.at(int32(c))), livePosts(intervals.MergeManyCanonical(sets)); got != want {
			return fmt.Errorf("incr: component %d's label holds %d live posts, but it reaches %d", c, got, want)
		}
	}
	return nil
}

// validateCover checks the counted label (cover.go): the successor
// marks are exactly the counted component's out-row, the count equals
// one rebuilt from the post and the successors' stored labels, every
// non-zero entry is marked for the sweep, and the sweep equals their
// merge.
func (x *Index) validateCover() error {
	v := &x.cov
	if v.c < 0 {
		return nil
	}
	c := v.c
	if !x.alive[c] {
		return fmt.Errorf("incr: the counted component %d is retired", c)
	}
	if len(v.succ) != len(x.alive) || len(v.delta) != int(x.maxPost)+2 {
		return fmt.Errorf("incr: the count has %d successor marks and %d posts for %d components and %d posts",
			len(v.succ), len(v.delta)-2, len(x.alive), x.maxPost)
	}
	marks := 0
	for _, on := range v.succ {
		if on {
			marks++
		}
	}
	for _, e := range x.outC[c] {
		if !v.succ[e.to] {
			return fmt.Errorf("incr: successor %d of the counted component %d carries no successor mark", e.to, c)
		}
	}
	if marks != len(x.outC[c]) {
		return fmt.Errorf("incr: %d successor marks for the counted component %d's %d successors", marks, c, len(x.outC[c]))
	}
	if len(v.nz) != (len(v.delta)+63)/64 {
		return fmt.Errorf("incr: the count's bitmap has %d words for %d posts", len(v.nz), len(v.delta)-2)
	}
	want := cover{delta: make([]int32, len(v.delta)), nz: make([]uint64, len(v.nz))}
	sets := []intervals.Set{intervals.Singleton(x.post.at(c))}
	for _, e := range x.outC[c] {
		sets = append(sets, x.labels.at(e.to))
	}
	for _, s := range sets {
		want.add(s, 1)
	}
	for p := range v.delta {
		if v.delta[p] != want.delta[p] {
			return fmt.Errorf("incr: the counted component %d's coverage count is %d at post %d, its successors' labels give %d",
				c, v.delta[p], p, want.delta[p])
		}
		if v.delta[p] != 0 && v.nz[p>>6]&(1<<(p&63)) == 0 {
			return fmt.Errorf("incr: the counted component %d's coverage count is %d at post %d, which its sweep skips", c, v.delta[p], p)
		}
	}
	if got, merged := v.label(), intervals.MergeManyCanonical(sets); !got.Equal(merged) {
		return fmt.Errorf("incr: the counted component %d's coverage count sweeps to %v, its successors' labels merge to %v", c, got, merged)
	}
	return nil
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

// validateSpatial checks the spatial state a query reads:
//   - the base tiles' own invariants (tiles.Validate), one tombstone
//     flag per base entry and tombs of them set;
//   - the overlay rows' cell offsets, their (post, id) order within
//     each cell, and each entry in a cell its box covers, with one
//     replica per such cell;
//   - every spatial vertex represented by exactly one live entry — a
//     base entry without a tombstone, or its overlay replicas — keyed by
//     post(comp(v)), and no other vertex by any.
//
// With geo (the writer's copy), each live entry's geometry must also be
// the venue's, exactly: a base entry's rectangle as its two corners
// hold it, an overlay replica's box.
func validateSpatial(q qview, spatial []bool, comp, post []int32, geo []geom.Rect) error {
	n := q.n
	if err := q.base.Validate(); err != nil {
		return err
	}
	bc := q.base.Columns()
	off := len(bc.X) - len(bc.Post)
	if q.dead.len() != len(bc.ID) {
		return fmt.Errorf("incr: %d tombstone flags for %d base entries", q.dead.len(), len(bc.ID))
	}
	live := make([]geom.Rect, n) // each venue's live geometry
	has := make([]bool, n)
	inBase := make([]bool, n)
	dead := 0
	for k, id := range bc.ID {
		if int(id) >= n || !spatial[id] {
			return fmt.Errorf("incr: base entry %d is vertex %d, not a venue", k, id)
		}
		if inBase[id] {
			return fmt.Errorf("incr: venue %d appears twice in the base", id)
		}
		inBase[id] = true
		if q.dead.at(int32(k)) {
			dead++
			continue
		}
		if want := post[comp[id]]; bc.Post[k] != want {
			return fmt.Errorf("incr: venue %d's base entry has post %d but post(comp) = %d", id, bc.Post[k], want)
		}
		live[id], has[id] = geom.Rect{Min: geom.Pt(bc.X[k], bc.Y[k]), Max: geom.Pt(bc.X[off+k], bc.Y[off+k])}, true
	}
	if dead != q.tombs {
		return fmt.Errorf("incr: %d tombstones set but %d counted", dead, q.tombs)
	}

	o, g := q.ov, q.grid
	if len(o.rows) != 0 && len(o.rows) != grid.Side {
		return fmt.Errorf("incr: %d overlay rows for a grid of %d", len(o.rows), grid.Side)
	}
	replicas := make([]int, n)
	entries := 0
	for y, row := range o.rows {
		if row == nil {
			continue
		}
		m := len(row.post)
		if m == 0 || len(row.id) != m || len(row.box) != m {
			return fmt.Errorf("incr: overlay row %d has columns of %d posts, %d ids, %d boxes", y, m, len(row.id), len(row.box))
		}
		if len(row.start) != grid.Side+1 || row.start[0] != 0 || int(row.start[grid.Side]) != m {
			return fmt.Errorf("incr: overlay row %d has %d cell offsets for %d cells and %d entries", y, len(row.start), grid.Side, m)
		}
		entries += m
		for x := 0; x < grid.Side; x++ {
			a, b := int(row.start[x]), int(row.start[x+1])
			if a > b {
				return fmt.Errorf("incr: overlay cell (%d, %d) runs from %d to %d", x, y, a, b)
			}
			for k := a; k < b; k++ {
				id, box := row.id[k], row.box[k]
				if id < 0 || int(id) >= n || !spatial[id] {
					return fmt.Errorf("incr: overlay entry (%d, %d) is vertex %d, not a venue", y, k, id)
				}
				if k > a && cmp.Or(cmp.Compare(row.post[k-1], row.post[k]), cmp.Compare(row.id[k-1], id)) >= 0 {
					return fmt.Errorf("incr: overlay cell (%d, %d) is out of (post, id) order at entry %d", x, y, k)
				}
				if x0, y0, x1, y1 := g.Range(box); !box.Valid() || x < x0 || x > x1 || y < y0 || y > y1 {
					return fmt.Errorf("incr: venue %d's overlay box %v lies outside its cell (%d, %d)", id, box, x, y)
				}
				if want := post[comp[id]]; row.post[k] != want {
					return fmt.Errorf("incr: venue %d's overlay entry has post %d but post(comp) = %d", id, row.post[k], want)
				}
				if replicas[id] == 0 {
					if has[id] {
						return fmt.Errorf("incr: venue %d live in both base and overlay", id)
					}
					live[id], has[id] = box, true
				} else if live[id] != box {
					return fmt.Errorf("incr: venue %d's overlay replicas hold %v and %v", id, live[id], box)
				}
				replicas[id]++
			}
		}
	}
	if entries != o.n {
		return fmt.Errorf("incr: %d overlay entries, but %d counted", entries, o.n)
	}

	for v := 0; v < n; v++ {
		if !spatial[v] {
			continue
		}
		if !has[v] {
			return fmt.Errorf("incr: venue %d has no live spatial entry", v)
		}
		if geo != nil && live[v] != geo[v] {
			return fmt.Errorf("incr: venue %d's live entry is at %v but the venue at %v", v, live[v], geo[v])
		}
		x0, y0, x1, y1 := g.Range(live[v])
		if replicas[v] > 0 && replicas[v] != (x1-x0+1)*(y1-y0+1) {
			return fmt.Errorf("incr: venue %d has %d overlay replicas for %d cells", v, replicas[v], (x1-x0+1)*(y1-y0+1))
		}
	}
	return nil
}

// Validate deep-checks a snapshot: well-formed self-containing labels
// over the referenced components, distinct posts, and the spatial
// decomposition at capture time (validateSpatial).
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
	return validateSpatial(s.q, s.spatial.flat(), comp, post, nil)
}
