package incr

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// mirror is the ground-truth shadow model: the raw graph and geometry
// every index state must agree with, queryable by BFS.
type mirror struct {
	edges   map[[2]int]bool
	spatial []bool
	points  []geom.Point
	extents []geom.Rect // nil, or per vertex: zero for a point
}

func newMirror(net *dataset.Network) *mirror {
	m := &mirror{
		edges:   make(map[[2]int]bool),
		spatial: append([]bool(nil), net.Spatial...),
		points:  append([]geom.Point(nil), net.Points...),
		extents: append([]geom.Rect(nil), net.Extents...),
	}
	net.Graph.Edges(func(u, v int) { m.edges[[2]int{u, v}] = true })
	return m
}

func (m *mirror) network() *dataset.Network {
	var edges [][2]int
	for e := range m.edges {
		edges = append(edges, e)
	}
	var extents []geom.Rect
	if m.extents != nil {
		extents = make([]geom.Rect, len(m.spatial))
		copy(extents, m.extents)
	}
	return &dataset.Network{
		Name:    "mirror",
		Graph:   graph.FromEdges(len(m.spatial), edges),
		Spatial: m.spatial,
		Points:  m.points,
		Extents: extents,
	}
}

// reach is the BFS oracle: does v reach any spatial vertex whose
// geometry intersects r?
func (m *mirror) reach(v int, r geom.Rect) bool {
	n := len(m.spatial)
	adj := make([][]int, n)
	for e := range m.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	seen := make([]bool, n)
	queue := []int{v}
	seen[v] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if m.spatial[u] && m.geometry(u).Intersects(r) {
			return true
		}
		for _, w := range adj[u] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

func (m *mirror) geometry(v int) geom.Rect {
	if v < len(m.extents) && m.extents[v] != (geom.Rect{}) {
		return m.extents[v]
	}
	return geom.RectFromPoint(m.points[v])
}

// move places venue v at p, a point.
func (m *mirror) move(v int, p geom.Point) {
	m.points[v] = p
	if v < len(m.extents) {
		m.extents[v] = geom.Rect{}
	}
}

func (m *mirror) randomEdge(rng *rand.Rand) ([2]int, bool) {
	if len(m.edges) == 0 {
		return [2]int{}, false
	}
	k := rng.Intn(len(m.edges))
	for e := range m.edges {
		if k == 0 {
			return e, true
		}
		k--
	}
	return [2]int{}, false
}

func (m *mirror) randomVenue(rng *rand.Rand) (int, bool) {
	var venues []int
	for v, s := range m.spatial {
		if s {
			venues = append(venues, v)
		}
	}
	if len(venues) == 0 {
		return 0, false
	}
	return venues[rng.Intn(len(venues))], true
}

func randomNetwork(rng *rand.Rand, n, edges int) *dataset.Network {
	spatial := make([]bool, n)
	points := make([]geom.Point, n)
	for v := range spatial {
		if rng.Float64() < 0.5 {
			spatial[v] = true
			points[v] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
	}
	var es [][2]int
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, [2]int{u, v})
		}
	}
	return &dataset.Network{
		Name:    "random",
		Graph:   graph.FromEdges(n, es),
		Spatial: spatial,
		Points:  points,
	}
}

func randomRegion(rng *rand.Rand) geom.Rect {
	x, y := rng.Float64()*100, rng.Float64()*100
	w, h := rng.Float64()*40, rng.Float64()*40
	return geom.NewRect(x, y, x+w, y+h)
}

// applyRandomOp mutates the index and the mirror identically. It also
// drives a lockstep second index when one is given (the FullRebuild
// A/B arm).
func applyRandomOp(t *testing.T, rng *rand.Rand, x *Index, m *mirror, lockstep *Index) {
	t.Helper()
	apply := func(f func(ix *Index) error) {
		if err := f(x); err != nil {
			t.Fatalf("op on incremental index: %v", err)
		}
		if lockstep != nil {
			if err := f(lockstep); err != nil {
				t.Fatalf("op on lockstep index: %v", err)
			}
		}
	}
	switch rng.Intn(10) {
	case 0: // add user
		want := len(m.spatial)
		apply(func(ix *Index) error {
			if got := ix.AddUser(); got != want {
				t.Fatalf("AddUser id = %d, want %d", got, want)
			}
			return nil
		})
		m.spatial = append(m.spatial, false)
		m.points = append(m.points, geom.Point{})
	case 1, 2: // add venue
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		want := len(m.spatial)
		apply(func(ix *Index) error {
			if got := ix.AddVenue(p.X, p.Y); got != want {
				t.Fatalf("AddVenue id = %d, want %d", got, want)
			}
			return nil
		})
		m.spatial = append(m.spatial, true)
		m.points = append(m.points, p)
	case 3, 4: // delete an existing edge
		e, ok := m.randomEdge(rng)
		if !ok {
			return
		}
		apply(func(ix *Index) error { return ix.DeleteEdge(e[0], e[1]) })
		delete(m.edges, e)
	case 5: // move a venue
		v, ok := m.randomVenue(rng)
		if !ok {
			return
		}
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		apply(func(ix *Index) error { return ix.MoveVenue(v, p.X, p.Y) })
		m.move(v, p)
	default: // add edge (cycle-closing ones included)
		u, v := rng.Intn(len(m.spatial)), rng.Intn(len(m.spatial))
		if u == v {
			return
		}
		apply(func(ix *Index) error { return ix.AddEdge(u, v) })
		m.edges[[2]int{u, v}] = true
	}
}

// TestEquivalenceRandomized is the update-stream equivalence harness:
// randomized interleaved inserts, deletes and moves, with every
// patched state required to (a) pass deep validation, (b) answer
// identically to the BFS ground truth, (c) answer identically to a
// from-scratch build of the same network, and (d) stay in lockstep
// with a FullRebuild-mode index fed the same ops. Snapshots taken
// along the way validate and answer identically too. The same trials run
// under the default counting rule, which never counts a component of
// networks this small, and with the threshold at 1, which counts the
// widest out-row (cover.go); each under the default work budget and
// under smallBudget, which switches many epochs to rebuilding mid-patch.
func TestEquivalenceRandomized(t *testing.T) {
	for _, coverMin := range []int{0, 1} {
		t.Run(fmt.Sprintf("coverMin=%d", coverMin), func(t *testing.T) {
			for _, budget := range []int{0, smallBudget} {
				equivalenceRandomized(t, coverMin, budget)
			}
		})
	}
}

func equivalenceRandomized(t *testing.T, coverMin, budget int) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		net := randomNetwork(rng, 8+rng.Intn(20), 5+rng.Intn(30))
		prep := dataset.Prepare(net)
		x := New(prep, Options{coverMin: coverMin, budget: budget})
		rebuildArm := New(prep, Options{Mode: FullRebuild})
		m := newMirror(net)

		check := func(step int) {
			if err := x.Validate(); err != nil {
				t.Fatalf("budget %d, trial %d step %d: validate: %v", budget, trial, step, err)
			}
			snap := x.Snapshot()
			if err := snap.Validate(); err != nil {
				t.Fatalf("budget %d, trial %d step %d: snapshot validate: %v", budget, trial, step, err)
			}
			scratch := New(dataset.Prepare(m.network()), Options{})
			for q := 0; q < 15; q++ {
				v := rng.Intn(len(m.spatial))
				r := randomRegion(rng)
				want := m.reach(v, r)
				if got := x.RangeReach(v, r); got != want {
					t.Fatalf("budget %d, trial %d step %d: incremental RangeReach(%d, %v) = %v, want %v",
						budget, trial, step, v, r, got, want)
				}
				if got := snap.RangeReach(v, r); got != want {
					t.Fatalf("budget %d, trial %d step %d: snapshot RangeReach(%d, %v) = %v, want %v",
						budget, trial, step, v, r, got, want)
				}
				if got := scratch.RangeReach(v, r); got != want {
					t.Fatalf("budget %d, trial %d step %d: from-scratch RangeReach(%d, %v) = %v, want %v",
						budget, trial, step, v, r, got, want)
				}
				if got := rebuildArm.RangeReach(v, r); got != want {
					t.Fatalf("budget %d, trial %d step %d: rebuild-mode RangeReach(%d, %v) = %v, want %v",
						budget, trial, step, v, r, got, want)
				}
			}
		}

		check(-1)
		for step := 0; step < 60; step++ {
			applyRandomOp(t, rng, x, m, rebuildArm)
			if step%5 == 4 {
				check(step)
			}
		}
		check(60)
	}
}

// TestMergeOnCycleClosingInsert pins the merge path: a 3-cycle closed
// one edge at a time collapses three components into one super-vertex
// whose venues all answer for each member.
func TestMergeOnCycleClosingInsert(t *testing.T) {
	// 0 → 1 → 2, venue 3 checked in from 2 only.
	net := &dataset.Network{
		Name:    "merge",
		Graph:   graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		Spatial: []bool{false, false, false, true},
		Points:  []geom.Point{{}, {}, {}, geom.Pt(5, 5)},
	}
	x := New(dataset.Prepare(net), Options{})
	at5 := geom.NewRect(4, 4, 6, 6)
	if !x.RangeReach(0, at5) || x.RangeReach(3, at5) == false {
		t.Fatal("pre-merge reachability wrong")
	}
	before := x.Stats()
	if err := x.AddEdge(2, 0); err != nil {
		t.Fatalf("cycle-closing AddEdge: %v", err)
	}
	if got := x.Stats().Merges; got != before.Merges+1 {
		t.Fatalf("Merges = %d, want %d", got, before.Merges+1)
	}
	if x.comp.at(0) != x.comp.at(1) || x.comp.at(1) != x.comp.at(2) {
		t.Fatal("cycle members not merged into one component")
	}
	if err := x.Validate(); err != nil {
		t.Fatalf("validate after merge: %v", err)
	}
	for v := 0; v < 3; v++ {
		if !x.RangeReach(v, at5) {
			t.Fatalf("vertex %d lost the venue after merge", v)
		}
	}
}

// TestSplitOnDelete pins the split path: deleting the edge that closes
// a 2-cycle splits the merged component back apart, and reachability
// becomes asymmetric again.
func TestSplitOnDelete(t *testing.T) {
	net := &dataset.Network{
		Name:    "split",
		Graph:   graph.FromEdges(3, [][2]int{{0, 1}, {1, 0}, {1, 2}}),
		Spatial: []bool{false, false, true},
		Points:  []geom.Point{{}, {}, geom.Pt(5, 5)},
	}
	x := New(dataset.Prepare(net), Options{})
	if x.comp.at(0) != x.comp.at(1) {
		t.Fatal("0 and 1 should start in one component")
	}
	at5 := geom.NewRect(4, 4, 6, 6)
	before := x.Stats()
	if err := x.DeleteEdge(1, 0); err != nil {
		t.Fatalf("DeleteEdge: %v", err)
	}
	// The split probe is deferred; the next label read replays it.
	if !x.RangeReach(0, at5) {
		t.Fatal("0 → 1 → 2 path lost by split")
	}
	s := x.Stats()
	if s.SplitChecks != before.SplitChecks+1 || s.Splits != before.Splits+1 {
		t.Fatalf("split not taken: %+v", s)
	}
	if x.comp.at(0) == x.comp.at(1) {
		t.Fatal("component did not split")
	}
	if err := x.Validate(); err != nil {
		t.Fatalf("validate after split: %v", err)
	}
	// 1 still reaches the venue; 0's reverse direction is gone but the
	// forward edge 0→1 remains, so only deleting it isolates 0.
	if err := x.DeleteEdge(0, 1); err != nil {
		t.Fatalf("DeleteEdge: %v", err)
	}
	if x.RangeReach(0, at5) {
		t.Fatal("0 reaches the venue with no path left")
	}
	if !x.RangeReach(1, at5) {
		t.Fatal("1 lost the venue")
	}
}

// TestDeleteErrors pins the error surface.
func TestDeleteErrors(t *testing.T) {
	net := randomNetwork(rand.New(rand.NewSource(7)), 5, 4)
	x := New(dataset.Prepare(net), Options{})
	if err := x.DeleteEdge(-1, 0); err == nil {
		t.Error("out-of-range DeleteEdge accepted")
	}
	if err := x.DeleteEdge(0, 0); err == nil {
		t.Error("self-loop DeleteEdge accepted")
	}
	if err := x.MoveVenue(-1, 0, 0); err == nil {
		t.Error("out-of-range MoveVenue accepted")
	}
	for v, s := range net.Spatial {
		if !s {
			if err := x.MoveVenue(v, 1, 1); err == nil {
				t.Errorf("MoveVenue on social vertex %d accepted", v)
			}
			break
		}
	}
}

// TestOverlayFoldBounded drives enough venue churn to cross the fold
// threshold and checks the overlay actually folds into the base.
func TestOverlayFoldBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := randomNetwork(rng, 10, 10)
	x := New(dataset.Prepare(net), Options{overlayMin: 16})
	for i := 0; i < 400; i++ {
		x.AddVenue(rng.Float64()*100, rng.Float64()*100)
	}
	s := x.Stats()
	if s.Folds == 0 {
		t.Fatalf("no folds after 400 venue adds: %+v", s)
	}
	if pending := x.ov.points + s.StaleLen; pending >= 16 && pending*8 >= x.dead.len()+x.ov.points {
		t.Fatalf("overlay left above the fold threshold: %+v", s)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkBudgetFallback pins the budget rule deterministically on a
// 60-vertex chain (every vertex its own component): deleting an edge
// deep in the chain relabels a 41-component ancestor cone, which patches
// under the default budget and runs out of a budget of 10 in the middle
// of the relabel, so the read rebuilds. Both arms must stay correct.
func TestWorkBudgetFallback(t *testing.T) {
	chain := func() *dataset.Network {
		const n = 60
		var es [][2]int
		for v := 0; v+1 < n; v++ {
			es = append(es, [2]int{v, v + 1})
		}
		spatial := make([]bool, n)
		points := make([]geom.Point, n)
		spatial[n-1] = true
		points[n-1] = geom.Pt(5, 5)
		return &dataset.Network{Name: "chain", Graph: graph.FromEdges(n, es), Spatial: spatial, Points: points}
	}
	at5 := geom.NewRect(4, 4, 6, 6)

	// Cone relabels are deferred to the next label read, so the stats
	// are checked after a query forces the flush.
	patched := New(dataset.Prepare(chain()), Options{})
	if err := patched.DeleteEdge(40, 41); err != nil {
		t.Fatal(err)
	}
	patched.RangeReach(0, at5)
	if s := patched.Stats(); s.FullRebuilds != 0 || s.ConeRelabels != 1 {
		t.Fatalf("the default budget should patch, got %+v", s)
	}

	strict := New(dataset.Prepare(chain()), Options{budget: 10})
	if err := strict.DeleteEdge(40, 41); err != nil {
		t.Fatal(err)
	}
	strict.RangeReach(0, at5)
	if s := strict.Stats(); s.FullRebuilds != 1 || s.ConeRelabels != 0 {
		t.Fatalf("a budget of 10 should rebuild, got %+v", s)
	}

	for _, x := range []*Index{patched, strict} {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
		if x.RangeReach(0, at5) {
			t.Fatal("0 reaches the venue across the deleted edge")
		}
		if !x.RangeReach(41, at5) {
			t.Fatal("41 lost the venue")
		}
	}
}

// TestValidateDetectsCorruption flips individual invariants and checks
// Validate names them.
func TestValidateDetectsCorruption(t *testing.T) {
	fresh := func() *Index {
		return New(dataset.Prepare(randomNetwork(rand.New(rand.NewSource(17)), 12, 20)), Options{})
	}

	x := fresh()
	if err := x.Validate(); err != nil {
		t.Fatalf("fresh index invalid: %v", err)
	}

	x = fresh()
	x.comp.set(0, x.comp.at(1)+100) // out of any live component
	if x.Validate() == nil {
		t.Error("comp corruption not detected")
	}

	x = fresh()
	x.post.set(x.comp.at(0), x.maxPost+7)
	if x.Validate() == nil {
		t.Error("post corruption not detected")
	}

	x = fresh()
	x.labels.set(x.comp.at(0), nil)
	if x.Validate() == nil {
		t.Error("label corruption not detected")
	}

	x = fresh()
	c0 := x.comp.at(0)
	for v := int32(1); int(v) < x.n; v++ {
		if c := x.comp.at(v); c != c0 && !x.labels.at(c0).ContainsCanonical(x.post.at(c)) {
			// Phantom DAG edge with no original edge backing it: the
			// refcount cross-check must flag it. (Chosen so it does not
			// also create a label-nesting violation first.)
			x.addDAGEdge(c, c0)
			if x.Validate() == nil {
				t.Error("refcount corruption not detected")
			}
			break
		}
	}

	// A partition that is too coarse: two components glued by the
	// engine's own merge, so refcounts, labels, nesting, acyclicity and
	// venue keys all stay consistent. Only the comparison with the
	// graph's strongly connected components can tell.
	x = fresh()
	for c, row := range x.outC {
		if len(row) > 0 {
			x.mergeCycle([]int32{int32(c), row[0].to})
			break
		}
	}
	if err := x.Validate(); err == nil || !strings.Contains(err.Error(), "strongly connected") {
		t.Errorf("glued components: want a partition error, got %v", err)
	}

	// The counted label (cover.go): a coverage count that drifted from
	// the successors' labels, and a successor the count no longer marks.
	counted := func() *Index {
		x := New(dataset.Prepare(randomNetwork(rand.New(rand.NewSource(17)), 12, 20)), Options{coverMin: 1})
		if x.cov.c < 0 || len(x.outC[x.cov.c]) == 0 {
			t.Fatal("fixture counts no component")
		}
		return x
	}
	for _, c := range []struct {
		want   string
		damage func(x *Index)
	}{
		{"coverage count", func(x *Index) { x.cov.delta[x.post.at(x.cov.c)]++ }},
		{"successor mark", func(x *Index) { x.cov.succ[x.outC[x.cov.c][0].to] = false }},
	} {
		x = counted()
		if err := x.Validate(); err != nil {
			t.Fatalf("fresh counted index invalid: %v", err)
		}
		c.damage(x)
		if err := x.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want an error containing %q, got %v", c.want, err)
		}
	}

	// Snapshot-side corruption.
	s := fresh().Snapshot()
	if err := s.Validate(); err != nil {
		t.Fatalf("fresh snapshot invalid: %v", err)
	}
	s.post.pages[0][s.q.comp.at(0)] = 0 // the fixture's components fit one page
	if s.Validate() == nil {
		t.Error("snapshot post corruption not detected")
	}

	firstRow := func(x *Index) *ovRow {
		for _, row := range x.ov.rows {
			if row != nil {
				return row
			}
		}
		return nil
	}
	// Spatial corruption — in the base tiles, the tombstones, the
	// overlay and the occupancy grid — on the index and on a snapshot
	// sharing the damaged structure (the publish check validates both).
	// The fixture has a fold behind it, a few tombstones, and overlay
	// entries in several cells.
	for _, c := range []struct {
		want   string
		damage func(x *Index)
	}{
		{"outside cell", func(x *Index) { x.base.Columns().X[0] -= 1e9 }},
		{"base entry has post", func(x *Index) {
			// A live point takes its predecessor's post, or 0 as the
			// first of its cell: the cell's post order holds.
			c := x.base.Columns()
			for k := range c.Post {
				p := int32(0)
				if !slices.Contains(c.CellPoints, uint32(k)) {
					p = c.Post[k-1]
				}
				if !x.dead.at(int32(k)) && p != c.Post[k] {
					c.Post[k] = p
					return
				}
			}
		}},
		{"tombstones set", func(x *Index) { x.tombs++ }},
		{"overlay entry has post", func(x *Index) { firstRow(x).post[0] += 1 << 20 }},
		{"out of (post, id) order", func(x *Index) {
			// Two entries of one cell swap places.
			for _, row := range x.ov.rows {
				for c := 0; row != nil && c < x.grid.nx; c++ {
					if k := int(row.start[c]); row.start[c+1]-row.start[c] >= 2 {
						row.post[k], row.post[k+1] = row.post[k+1], row.post[k]
						row.id[k], row.id[k+1] = row.id[k+1], row.id[k]
						return
					}
				}
			}
		}},
		{"outside its cell", func(x *Index) { firstRow(x).box[0] = geom.RectFromPoint(geom.Pt(1e9, 1e9)) }},
		{"cell offsets", func(x *Index) { firstRow(x).start[x.grid.nx]-- }},
		{"occupancy grid", func(x *Index) { x.grid.cells[0]++ }},
	} {
		x = fresh()
		for v := 0; v < x.n; v++ {
			if x.spatial.at(int32(v)) && v%3 == 0 {
				if err := x.MoveVenue(v, float64(v%10)*10, float64(v%7)*10); err != nil {
					t.Fatal(err)
				}
			}
		}
		x.AddVenue(5, 5)
		x.AddVenue(5.5, 5)
		s = x.Snapshot()
		if x.tombs == 0 || x.ov.n < 2 {
			t.Fatalf("fixture has %d tombstones and %d overlay entries", x.tombs, x.ov.n)
		}
		c.damage(x)
		s.q.tombs = x.tombs
		s.q.grid = x.grid
		for name, err := range map[string]error{"index": x.Validate(), "snapshot": s.Validate()} {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: want an error containing %q, got %v", name, c.want, err)
			}
		}
	}

}
