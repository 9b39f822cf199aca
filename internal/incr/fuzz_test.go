package incr

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// Update-stream fuzzing: the input decodes into a sequence of ops, three
// bytes each (kind, a, b), applied to an incremental index, to a
// FullRebuild-mode index and to the BFS mirror alike. At every publish
// the index and the snapshot must validate — Validate includes "the
// components are the graph's strongly connected components" and "each
// label is exact on live posts" — and every vertex must answer a grid
// of regions as the mirror does, on the live index, the snapshot and
// the rebuild arm. Every input runs four times: under the default
// counting rule, which never counts a component of networks this small,
// and with the threshold at 1, which counts the widest out-row
// (cover.go); each under the default work budget, which these networks
// seldom exhaust, and under smallBudget, which most epochs that insert
// an edge run out of somewhere mid-patch.
const (
	fzAddEdge = iota
	fzDelEdge
	fzAddUser
	fzAddVenue
	fzMoveVenue
	fzPublish
	// fzExtents as the first op gives the base network's venues extents
	// of up to 25 × 25, a and b setting width and height; elsewhere it
	// does nothing.
	fzExtents
	fzKinds
)

// fuzzBase is the stream's starting network: two 3-cycles of users, 0–2
// and 3–5, joined one way by 0 → 3, and four venues checked into from
// both, spanning [5, 95]².
func fuzzBase() *dataset.Network {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {0, 3}, {1, 6}, {2, 7}, {4, 8}, {5, 9}}
	spatial := make([]bool, 10)
	points := make([]geom.Point, 10)
	for v := 6; v < 10; v++ {
		spatial[v] = true
		points[v] = geom.Pt(float64(v-6)*30+5, float64(9-v)*30+5)
	}
	return &dataset.Network{Name: "fuzz", Graph: graph.FromEdges(10, edges), Spatial: spatial, Points: points}
}

func FuzzUpdateStream(f *testing.F) {
	op := func(kind, a, b byte) []byte { return []byte{kind, a, b} }
	stream := func(ops ...[]byte) (s []byte) {
		for _, o := range ops {
			s = append(s, o...)
		}
		return s
	}
	// What churn does all day: a stream user (vertex 10) gains an in- and
	// an out-edge at a cycle — merging into it — and loses one again,
	// which peels it back off; then the other.
	f.Add(stream(op(fzAddUser, 0, 0), op(fzAddEdge, 1, 10), op(fzAddEdge, 10, 2), op(fzPublish, 0, 0),
		op(fzDelEdge, 10, 2), op(fzPublish, 0, 0), op(fzDelEdge, 1, 10)))
	f.Add(stream(op(fzAddUser, 0, 0), op(fzAddEdge, 1, 10), op(fzAddEdge, 10, 2), op(fzDelEdge, 1, 10)))
	// The bridge: vertex 10 becomes the only way back from the second
	// cycle to the first, so all seven merge; taking either of its edges
	// away peels it off and leaves the two cycles apart again — the split
	// certificate must fail, from either side.
	f.Add(stream(op(fzAddUser, 0, 0), op(fzAddEdge, 4, 10), op(fzAddEdge, 10, 1), op(fzPublish, 0, 0), op(fzDelEdge, 10, 1)))
	f.Add(stream(op(fzAddUser, 0, 0), op(fzAddEdge, 4, 10), op(fzAddEdge, 10, 1), op(fzPublish, 0, 0), op(fzDelEdge, 4, 10)))
	// Several deletes in one burst, inside and between components.
	f.Add(stream(op(fzAddEdge, 3, 0), op(fzPublish, 0, 0), op(fzDelEdge, 1, 2), op(fzDelEdge, 0, 3), op(fzDelEdge, 4, 5),
		op(fzAddEdge, 5, 1), op(fzPublish, 0, 0), op(fzDelEdge, 1, 6)))
	// Venues: added, linked, moved, and a user that follows only some.
	f.Add(stream(op(fzAddVenue, 200, 10), op(fzAddEdge, 2, 10), op(fzMoveVenue, 0, 77), op(fzAddVenue, 10, 250),
		op(fzPublish, 0, 0), op(fzMoveVenue, 4, 130), op(fzAddUser, 0, 0), op(fzAddEdge, 12, 11), op(fzAddEdge, 11, 12)))
	// A venue moved twice in one epoch, then back into its old cell.
	f.Add(stream(op(fzMoveVenue, 1, 20), op(fzMoveVenue, 1, 240), op(fzPublish, 0, 0), op(fzMoveVenue, 1, 100),
		op(fzMoveVenue, 1, 80), op(fzPublish, 0, 0)))
	// Venues moved across cells, which passes the fold threshold at the
	// publish; then a move out of the fresh base and a merge re-keying it.
	f.Add(stream(op(fzMoveVenue, 0, 250), op(fzMoveVenue, 3, 3), op(fzPublish, 0, 0), op(fzMoveVenue, 2, 128),
		op(fzAddEdge, 6, 0), op(fzPublish, 0, 0), op(fzDelEdge, 6, 0)))
	// Venues added outside the initial space, into the border cells, and
	// reached from both cycles.
	f.Add(stream(op(fzAddVenue, 0, 0), op(fzAddVenue, 255, 255), op(fzAddVenue, 0, 255), op(fzAddEdge, 1, 10),
		op(fzAddEdge, 4, 11), op(fzPublish, 0, 0), op(fzMoveVenue, 5, 0), op(fzAddEdge, 5, 12)))
	// An extent network: extents fold into the base tiles like points,
	// and a move turns one into a point.
	f.Add(stream(op(fzExtents, 120, 60), op(fzAddVenue, 128, 128), op(fzAddEdge, 0, 10), op(fzPublish, 0, 0),
		op(fzMoveVenue, 2, 40), op(fzAddEdge, 9, 3), op(fzPublish, 0, 0), op(fzDelEdge, 9, 3)))
	// With the threshold at 1 the first cycle, whose out-row is the
	// widest, is counted. The second grows a fourth member through
	// vertex 10, and 3 → 0 then merges the two with the second as the
	// survivor: the counted component is absorbed and the survivor
	// counts itself. Deleting 3 → 0 splits them again; in the second
	// stream the absorbed component is a pending relabel seed as well.
	f.Add(stream(op(fzAddUser, 0, 0), op(fzAddEdge, 3, 10), op(fzAddEdge, 10, 4), op(fzPublish, 0, 0),
		op(fzAddEdge, 3, 0), op(fzPublish, 0, 0), op(fzDelEdge, 3, 0), op(fzPublish, 0, 0), op(fzDelEdge, 4, 8)))
	f.Add(stream(op(fzPublish, 0, 0), op(fzDelEdge, 1, 6), op(fzAddUser, 0, 0), op(fzAddEdge, 3, 10),
		op(fzAddEdge, 10, 4), op(fzAddEdge, 3, 0), op(fzPublish, 0, 0), op(fzAddEdge, 0, 6), op(fzDelEdge, 10, 4)))
	// Under smallBudget each of these runs out of budget at one place:
	// in propagate, where the second of two inserts pushes a fresh post
	// up to the first cycle; in the flush's relabelCone, deriving the two
	// components that lost a venue; in the split after a merge, where the
	// merged cycles lose 4 → 5 and the split's push runs out; and in the
	// split probe's certificate, on a ring of twelve stream users.
	f.Add(stream(op(fzAddVenue, 10, 10), op(fzAddEdge, 5, 10), op(fzAddVenue, 200, 200), op(fzAddEdge, 5, 11), op(fzPublish, 0, 0)))
	f.Add(stream(op(fzDelEdge, 1, 6), op(fzDelEdge, 4, 8), op(fzPublish, 0, 0)))
	f.Add(stream(op(fzPublish, 0, 0), op(fzAddEdge, 3, 0), op(fzDelEdge, 4, 5), op(fzPublish, 0, 0)))
	ring := make([]byte, 0, 3*26)
	for i := byte(0); i < 12; i++ {
		ring = append(ring, op(fzAddUser, 0, 0)...)
	}
	for i := byte(0); i < 12; i++ {
		ring = append(ring, op(fzAddEdge, 10+i, 10+(i+1)%12)...)
	}
	f.Add(stream(ring, op(fzPublish, 0, 0), op(fzDelEdge, 15, 16), op(fzPublish, 0, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, coverMin := range []int{0, 1} {
			for _, budget := range []int{0, smallBudget} {
				fuzzStream(t, data, coverMin, budget)
			}
		}
	})
}

// smallBudget is the work budget the fuzzer and the equivalence harness
// run every stream under besides the default: a few label merges.
const smallBudget = 8

// fuzzStream applies one fuzz input with the given counting threshold
// and work budget (0: the default).
func fuzzStream(t *testing.T, data []byte, coverMin, budget int) {
	const maxOps, maxVertices = 256, 96
	net := fuzzBase()
	if len(data) >= 3 && data[0]%fzKinds == fzExtents {
		net.Extents = make([]geom.Rect, len(net.Spatial))
		for v, p := range net.Points {
			if net.Spatial[v] {
				net.Extents[v] = geom.NewRect(p.X, p.Y, p.X+float64(data[1])/10, p.Y+float64(data[2])/10)
			}
		}
	}
	prep := dataset.Prepare(net)
	x := New(prep, Options{overlayMin: 4, coverMin: coverMin, budget: budget})
	rebuildArm := New(prep, Options{Mode: FullRebuild})
	m := newMirror(net)
	both := func(apply func(ix *Index) error) {
		t.Helper()
		for _, ix := range []*Index{x, rebuildArm} {
			if err := apply(ix); err != nil {
				t.Fatalf("op rejected: %v", err)
			}
		}
	}
	publish := func(step int) {
		t.Helper()
		if err := x.Validate(); err != nil {
			t.Fatalf("coverMin %d, budget %d, op %d: index: %v", coverMin, budget, step, err)
		}
		snap := x.Snapshot()
		if err := snap.Validate(); err != nil {
			t.Fatalf("coverMin %d, budget %d, op %d: snapshot: %v", coverMin, budget, step, err)
		}
		for v := range m.spatial {
			for cell := 0; cell < 10; cell++ {
				// Nine cells of a 3×3 grid, then the whole space.
				r := geom.NewRect(float64(cell%3)*34, float64(cell/3)*34, float64(cell%3)*34+34, float64(cell/3)*34+34)
				if cell == 9 {
					r = geom.NewRect(0, 0, 102, 102)
				}
				want := m.reach(v, r)
				if got, s, rb := x.RangeReach(v, r), snap.RangeReach(v, r), rebuildArm.RangeReach(v, r); got != want || s != want || rb != want {
					t.Fatalf("coverMin %d, budget %d, op %d: RangeReach(%d, %v): index %v, snapshot %v, rebuild arm %v, BFS %v", coverMin, budget, step, v, r, got, s, rb, want)
				}
			}
		}
	}
	coord := func(b byte) float64 { return float64(b) / 255 * 100 }
	for i := 0; i+3 <= len(data) && i < 3*maxOps; i += 3 {
		kind, a, b := data[i]%fzKinds, int(data[i+1]), int(data[i+2])
		n := len(m.spatial)
		switch kind {
		case fzAddEdge:
			if u, v := a%n, b%n; u != v {
				both(func(ix *Index) error { return ix.AddEdge(u, v) })
				m.edges[[2]int{u, v}] = true
			}
		case fzDelEdge:
			if e := [2]int{a % n, b % n}; m.edges[e] {
				both(func(ix *Index) error { return ix.DeleteEdge(e[0], e[1]) })
				delete(m.edges, e)
			}
		case fzAddUser, fzAddVenue:
			if n == maxVertices {
				continue
			}
			var p geom.Point
			if kind == fzAddUser {
				both(func(ix *Index) error { ix.AddUser(); return nil })
			} else {
				p = geom.Pt(coord(byte(a)), coord(byte(b)))
				both(func(ix *Index) error { ix.AddVenue(p.X, p.Y); return nil })
			}
			m.spatial = append(m.spatial, kind == fzAddVenue)
			m.points = append(m.points, p)
		case fzMoveVenue:
			// The a-th venue, to a point both coordinates of which b sets.
			for v, k := 0, a; v < n; v++ {
				if m.spatial[v] {
					if k--; k < 0 {
						p := geom.Pt(coord(byte(b)), coord(byte(b*7)))
						both(func(ix *Index) error { return ix.MoveVenue(v, p.X, p.Y) })
						m.move(v, p)
						break
					}
				}
			}
		case fzPublish:
			publish(i / 3)
		case fzExtents:
			// Decoded above, as the first op.
		}
	}
	publish(len(data) / 3)
}
