package incr

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/intervals"
)

// This file holds the condensation patch operations: component
// allocation and retirement, DAG adjacency refcounting, label
// propagation for inserts, the cycle merge, the lazy split, and the
// bounded ancestor-cone relabel that both deletes funnel into.

// allocComp returns a fresh live component slot with a fresh post.
// Its label is the caller's responsibility.
func (x *Index) allocComp() int32 {
	c := int32(len(x.alive))
	x.maxPost++
	x.alive = append(x.alive, true)
	x.members = append(x.members, nil)
	x.outC = append(x.outC, nil)
	x.inC = append(x.inC, nil)
	x.post.append(x.maxPost)
	x.labels.append(nil)
	x.liveComps++
	return c
}

// propagate merges add into the labels of the source components and
// every ancestor, pruning branches whose label already covers add.
// Labels are replaced with freshly merged sets, never mutated, so
// published snapshots stay intact. Epoch-stamped marks bound the walk to
// one visit per component: without them a dense ancestor DAG re-enqueues
// a component once per path, which made core merges quadratic on
// fragmented networks.
func (x *Index) propagate(sources []int32, add intervals.Set) {
	const seen = 1
	x.cmark.begin(len(x.alive))
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if x.cmark.add(s, seen) {
			queue = append(queue, s)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		w := queue[qi]
		if x.labels.at(w).CoversCanonical(add) {
			continue
		}
		x.setLabel(w, intervals.MergeCanonical(x.labels.at(w), add))
		for _, p := range x.inC[w] {
			if x.cmark.add(p.to, seen) {
				queue = append(queue, p.to)
			}
		}
	}
}

// cycleRegion reports the components a cycle-closing insert (cu, cv)
// would collapse: every component on a DAG path cv ⇝ cu, or nil when
// cv does not reach cu. The discovery is purely structural — backward
// BFS from cu, then forward BFS from cv restricted to that set — so
// it stays exact while labels carry deferred (over-approximate)
// relabels; a label-guided walk here could absorb a component whose
// stale label vouches for a reach it no longer has. It does require
// an exact condensation: callers must replay deferred splits first.
func (x *Index) cycleRegion(cu, cv int32) []int32 {
	const toCU, inA = 1, 2
	x.cmark.begin(len(x.alive))
	x.cmark.set(cu, toCU)
	stack := []int32{cu}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range x.inC[c] {
			if x.cmark.add(p.to, toCU) {
				stack = append(stack, p.to)
			}
		}
	}
	if !x.cmark.has(cv, toCU) {
		return nil
	}
	affected := []int32{cv}
	x.cmark.set(cv, inA)
	for qi := 0; qi < len(affected); qi++ {
		for _, d := range x.outC[affected[qi]] {
			if f := x.cmark.get(d.to); f&toCU != 0 && f&inA == 0 {
				x.cmark.set(d.to, inA)
				affected = append(affected, d.to)
			}
		}
	}
	return affected
}

// mergeCycle collapses the components of a cycleRegion into one
// super-vertex. The survivor keeps the largest member list; the union
// label is pushed to its ancestors; venue entries of absorbed members
// are re-keyed to the survivor's post. Constituent labels may carry
// deferred relabels: the union is then over-approximate too, and heals
// at the next flush — the merged component inherits its constituents'
// paths to every pending seed, so it sits inside the eventual cones.
func (x *Index) mergeCycle(affected []int32) {
	const merging = 1
	x.cmark.begin(len(x.alive))
	for _, c := range affected {
		x.cmark.set(c, merging)
	}
	inA := func(e dagEdge) bool { return x.cmark.has(e.to, merging) }

	// Survivor: largest member list, so the fewest vertices re-point.
	r := affected[0]
	for _, c := range affected {
		if len(x.members[c]) > len(x.members[r]) {
			r = c
		}
	}

	sets := make([]intervals.Set, 0, len(affected))
	sets = append(sets, x.labels.at(r))
	for _, c := range affected {
		if c != r {
			sets = append(sets, x.labels.at(c))
		}
	}
	lbl := intervals.MergeManyCanonical(sets)

	// Rewire DAG adjacency: external edges of absorbed components move
	// to the survivor (refcounts add); edges internal to the merged
	// region disappear.
	x.outC[r] = slices.DeleteFunc(x.outC[r], inA)
	x.inC[r] = slices.DeleteFunc(x.inC[r], inA)
	for _, c := range affected {
		if c == r {
			continue
		}
		for _, e := range x.outC[c] {
			if !inA(e) {
				x.inC[e.to] = x.inC[e.to].remove(c)
				x.addDAGEdgeCount(r, e.to, e.cnt)
			}
		}
		for _, e := range x.inC[c] {
			if !inA(e) {
				x.outC[e.to] = x.outC[e.to].remove(c)
				x.addDAGEdgeCount(e.to, r, e.cnt)
			}
		}
	}

	var moved []int32
	for _, c := range affected {
		if c == r {
			continue
		}
		// An absorbed pending seed hands its deferred relabel to the
		// survivor — dropping it would leave the seed's stale
		// ancestors with no path into any future flush cone.
		if x.pending[c] {
			delete(x.pending, c)
			x.pending[r] = true
		}
		for _, m := range x.members[c] {
			x.comp.set(m, r)
			if x.spatial.at(m) {
				moved = append(moved, m)
			}
		}
		x.members[r] = append(x.members[r], x.members[c]...)
		x.members[c] = nil
		x.setLabel(c, nil)
		x.outC[c] = nil
		x.inC[c] = nil
		x.post.set(c, 0)
		x.alive[c] = false
		x.liveComps--
		x.deadComps++
	}
	x.setLabel(r, lbl)
	preds := make([]int32, 0, len(x.inC[r]))
	for _, p := range x.inC[r] {
		preds = append(preds, p.to)
	}
	x.propagate(preds, lbl)
	for _, m := range moved {
		x.patchVenue(m)
	}
	x.stats.Merges++
	x.maybeCompact()
}

// splitCheck decides whether deleting the intra-component edge (u, v)
// split component c, exploiting two facts about losing a single edge
// from a strongly connected component:
//
//  1. Every member still reaches u: a simple path ending at u cannot
//     use an edge whose tail is u. So u's new component is exactly the
//     set R of vertices u still reaches inside c.
//  2. Every member is still reached from v: a simple path starting at
//     v cannot use an edge whose head is v. So v's new component is
//     exactly the set B of vertices that still reach v inside c.
//
// probeSplit grows R forward from u and B backward from v in lockstep;
// the moment they touch, u→v survives and the component is still whole
// — nearly free in a dense component. On a real split it hands back
// piece(u) and piece(v), and an SCC pass runs only over the (typically
// empty) members outside both. The most populous piece keeps c's id,
// post, and venue keys, and only departed members have their comp ids,
// DAG edges, and venue entries re-derived: peeling a few vertices off a
// giant component costs the departed members' degree, not the giant's.
func (x *Index) splitCheck(c int32, u, v int) {
	x.stats.SplitChecks++
	m := x.members[c]
	if len(m) == 1 || u == v {
		return
	}
	nR, nB, peeled, meet := x.probeSplit(c, int32(u), int32(v))
	if meet {
		return // u still reaches v: still strongly connected
	}

	// Decompose the remainder m∖(R∪B) into SCCs over its induced
	// subgraph. Pieces: 0 is R, 1 is B, 2+k is remainder SCC k. After a
	// certified peel there is no remainder: whatever is outside the
	// peeled piece is the other endpoint's.
	var lcomp []int32
	cnt := 2
	if peeled == 0 {
		if grow := x.n - len(x.restSlot); grow > 0 {
			x.restSlot = append(x.restSlot, make([]int32, grow)...)
		}
		rest := make([]int32, 0, len(m)-nR-nB)
		for _, w := range m {
			if x.vmark.get(w)&(inR|inB) == 0 {
				x.restSlot[w] = int32(len(rest))
				rest = append(rest, w)
			}
		}
		b := graph.NewBuilder(len(rest))
		for i, w := range rest {
			for _, y := range x.out[w] {
				if x.comp.at(y) == c && x.vmark.get(y)&(inR|inB) == 0 {
					b.AddEdge(i, int(x.restSlot[y]))
				}
			}
		}
		var rcnt int
		lcomp, rcnt = b.Build().SCCs()
		cnt += rcnt
	}
	pieceOf := func(w int32) int {
		switch f := x.vmark.get(w); {
		case f&inR != 0:
			return 0
		case f&inB != 0:
			return 1
		case peeled == inR:
			return 1
		case peeled == inB:
			return 0
		default:
			return 2 + int(lcomp[x.restSlot[w]])
		}
	}

	// Piece-count valve: a component shattering into a large fraction of
	// the live components costs O(pieces × ancestors) in upward label
	// pushes below; a rebuild is cheaper and exact. Decide before
	// mutating. The ancestors of c are NOT part of this bound — their
	// relabel is deferred to the next flush, so a split stays cheap even
	// under a fragmented core with thousands of ancestor components.
	if x.tooDirty(cnt) {
		x.fullRebuild()
		return
	}

	// The most populous piece inherits c; the rest get fresh ids.
	sizes := make([]int, cnt)
	sizes[0], sizes[1] = nR, nB
	for _, k := range lcomp {
		sizes[2+k]++
	}
	keep := 0
	for k, sz := range sizes {
		if sz > sizes[keep] {
			keep = k
		}
	}
	pieceID := make([]int32, cnt)
	for k := range pieceID {
		if k == keep {
			pieceID[k] = c
		} else {
			pieceID[k] = x.allocComp()
		}
	}
	gone := make([]int32, 0, len(m)-sizes[keep])
	kept := m[:0:0]
	for _, w := range m {
		nc := pieceID[pieceOf(w)]
		if nc == c {
			kept = append(kept, w)
			continue
		}
		gone = append(gone, w)
		x.vmark.set(w, departed)
		x.comp.set(w, nc)
		x.members[nc] = append(x.members[nc], w)
	}
	x.members[c] = kept

	// Shrinks are deferred: labels above the split may still cover reach
	// that went only through departed members. The seeds are every piece
	// plus every external predecessor whose DAG edge is re-pointed off c
	// below — the flush's change-pruned relabel reacts to successor-label
	// changes but cannot see successor-set changes, so comps whose edge
	// sets this split rewired must be recomputed unconditionally. Every
	// old ancestor of c reaches one of these seeds, so the entire shrink
	// cone sits inside the next flush.
	if x.pending == nil {
		x.pending = make(map[int32]bool)
	}
	for _, nc := range pieceID {
		x.pending[nc] = true
	}

	// Re-derive only the DAG edges incident to departed members. Edges
	// between two departed members surface once, through the tail's out
	// list; edges to or from the kept piece were intra-component and
	// appear for the first time; edges crossing the old component
	// boundary move their refcount from c to the departed piece.
	for _, w := range gone {
		pw := x.comp.at(w)
		for _, y := range x.out[w] {
			switch cy := x.comp.at(y); {
			case cy == c || x.vmark.has(y, departed):
				if cy != pw {
					x.addDAGEdge(pw, cy)
				}
			default:
				x.decDAGEdge(c, cy)
				x.addDAGEdge(pw, cy)
			}
		}
		for _, y := range x.in[w] {
			if x.vmark.has(y, departed) {
				continue // covered by y's out list
			}
			if cy := x.comp.at(y); cy == c {
				x.addDAGEdge(c, pw)
			} else {
				x.decDAGEdge(cy, c)
				x.addDAGEdge(cy, pw)
				x.pending[cy] = true
			}
		}
	}

	// Label the fresh pieces by the exact recurrence over their
	// successors' stored labels — possibly stale inputs, so the results
	// are over-approximate at worst. Pieces are computed successors-
	// first among themselves (allocComp leaves labels nil, so a nil
	// successor means "not yet"; the piece DAG is acyclic, so each
	// sweep labels at least one piece) so a piece that reaches a
	// sibling inherits the sibling's full coverage at compute time.
	for unlabeled := cnt - 1; unlabeled > 0; {
		for _, nc := range pieceID {
			if nc == c || x.labels.at(nc) != nil {
				continue
			}
			sets := append(x.sets[:0], intervals.Singleton(x.post.at(nc)))
			for _, d := range x.outC[nc] {
				if x.labels.at(d.to) == nil {
					sets = nil
					break
				}
				sets = append(sets, x.labels.at(d.to))
			}
			if sets == nil {
				continue // a successor piece is not labeled yet
			}
			x.setLabel(nc, intervals.MergeManyCanonical(sets))
			x.releaseSets(sets)
			unlabeled--
		}
	}
	// Every ancestor of a fresh piece must cover the fresh posts; the
	// rest of a piece's reach was already covered above the split —
	// any current path into a piece enters through an edge whose tail
	// reached c before — so the fresh posts are the only new coverage
	// to push. They are allocated consecutively and compress to one
	// interval, making the upward walk one cheap merge per ancestor
	// instead of a full label push per piece.
	fresh := make(intervals.Set, 0, cnt-1)
	var preds []int32
	for _, nc := range pieceID {
		if nc == c {
			continue
		}
		fresh = fresh.Add(x.post.at(nc), x.post.at(nc))
		for _, p := range x.inC[nc] {
			preds = append(preds, p.to)
		}
	}
	x.propagate(preds, fresh.Compress())
	// Kept members hold their post (and venue z keys); only departed
	// venues re-key.
	for _, w := range gone {
		if x.spatial.at(w) {
			x.patchVenue(w)
		}
	}
	x.stats.Splits++
	x.maybeCompact()
}

// releaseSets hands a merge's input list back for the next one, with
// its references dropped so that it does not pin replaced labels.
func (x *Index) releaseSets(sets []intervals.Set) {
	clear(sets)
	x.sets = sets[:0]
}

// Flags in vmark while a split check runs.
const (
	inR      uint8 = 1 << iota // u reaches it: R, u's piece
	inB                        // it reaches v: B, v's piece
	asked                      // a peel certificate has searched from it
	departed                   // it leaves c for a fresh piece
)

// closure is one breadth-first search of a split check: forward over
// out-edges or backward over in-edges, inside one component.
type closure struct {
	adj   [][]int32
	marks *flagSet
	bit   uint8
	q     []int32 // every vertex reached so far, in discovery order
	head  int     // q[head:] is the frontier
}

func (s *closure) start(adj [][]int32, marks *flagSet, bit uint8, root int32) {
	s.adj, s.marks, s.bit = adj, marks, bit
	s.q, s.head = append(s.q[:0], root), 0
	marks.set(root, bit)
}

func (s *closure) exhausted() bool { return s.head == len(s.q) }

// expand visits the next frontier vertex of s: its unreached neighbours
// inside component c, less those carrying a skip flag in vmark, join s.
// It reports whether one of them belongs to other — the two searches
// have touched. The scan always completes, so s stays a well-formed
// BFS that can carry on after a touch.
func (x *Index) expand(c int32, s, other *closure, skip uint8) (touched bool) {
	w := s.q[s.head]
	s.head++
	x.probeSteps++
	for _, y := range s.adj[w] {
		if x.comp.at(y) != c || s.marks.has(y, s.bit) || x.vmark.has(y, skip) {
			continue
		}
		touched = touched || other.marks.has(y, other.bit)
		s.marks.set(y, s.bit)
		s.q = append(s.q, y)
	}
	return touched
}

// probeSplit grows u's forward-reachable set R and v's backward-
// reachable set B inside component c, alternating one vertex expansion
// per side. If the probes touch (some vertex is in both, so u→v
// survives) it reports meet. Otherwise one side runs dry first — and
// can then never be touched by the other: a vertex in both sets would
// give a surviving u→v path — so that side is a whole piece S, and what
// remains is to learn how T = m∖S decomposes. Peeling a vertex or two
// off a giant component leaves T the giant, so T is not traversed but
// certified (peelCertificate): on success the pieces are S and T, and
// peeled names S's flag. Only when the certificate fails, or gives up,
// does the other side run to completion as well, leaving R and B both
// readable from vmark and the remainder to splitCheck's SCC pass.
func (x *Index) probeSplit(c, u, v int32) (nR, nB int, peeled uint8, meet bool) {
	x.vmark.begin(x.n)
	fwd, bwd := &x.fwd, &x.bwd
	fwd.start(x.out, &x.vmark, inR, u)
	bwd.start(x.in, &x.vmark, inB, v)
	whole, part := fwd, bwd
	for !fwd.exhausted() {
		if x.expand(c, fwd, bwd, 0) {
			return 0, 0, 0, true // u→y and y→v: no split
		}
		if bwd.exhausted() {
			whole, part = bwd, fwd
			break
		}
		if x.expand(c, bwd, fwd, 0) {
			return 0, 0, 0, true
		}
	}
	members := len(x.members[c])
	if x.peelCertificate(c, whole, part, members) {
		if whole == fwd {
			return len(fwd.q), members - len(fwd.q), inR, false
		}
		return members - len(bwd.q), len(bwd.q), inB, false
	}
	for !part.exhausted() {
		x.expand(c, part, whole, 0)
	}
	return len(fwd.q), len(bwd.q), 0, false
}

// peelCertificate reports whether T = m∖S is still strongly connected,
// S being the piece the closure whole has just completed and part the
// unfinished closure of the other endpoint, which lies in T. It rests
// on a lemma (DESIGN.md §15, with S = R; S = B is its mirror image):
//
//	G'[T] is strongly connected iff every x ∈ T with an edge into R
//	still reaches v inside T.
//
// So for each such border vertex it runs the same lockstep probe, now
// restricted to T: a fresh search from the border vertex against part,
// which keeps growing across border vertices — inside T it is exactly
// the closure it was growing in m, since no path to v passes through
// the successor-closed R. In the giant component every border vertex
// meets part within a few expansions. The certificate answers false
// when a border vertex does not connect (T has split further) or when
// the searches have expanded more than budget vertices (traversing is
// then no dearer); the caller falls back to the exhaustive
// decomposition either way.
func (x *Index) peelCertificate(c int32, whole, part *closure, budget int) bool {
	limit := x.probeSteps + budget
	peel := &x.peel
	for _, s := range whole.q {
		for _, y := range part.adj[s] {
			if x.comp.at(y) != c || x.vmark.get(y)&(whole.bit|asked) != 0 {
				continue
			}
			x.vmark.set(y, asked)
			if x.vmark.has(y, part.bit) {
				continue
			}
			x.peelMark.begin(x.n)
			peel.start(whole.adj, &x.peelMark, 1, y)
			for {
				if peel.exhausted() || x.probeSteps > limit {
					return false
				}
				if x.expand(c, peel, part, whole.bit) {
					break
				}
				// part exhausted is v's (or u's) whole piece, without y.
				if part.exhausted() {
					return false
				}
				if x.expand(c, part, peel, 0) {
					break
				}
			}
		}
	}
	return true
}

// relabelCone recomputes the labels of the seed components and every
// ancestor, successors-first: L(c) = {post(c)} ∪ ⋃ L(d) over DAG
// successors d. Successors outside the cone keep their (correct)
// labels and are read as-is. Falls back to a full rebuild — and
// reports it by returning false — when the cone exceeds the dirty
// fraction of live components.
func (x *Index) relabelCone(seeds []int32) bool {
	// Flags in cmark: cone membership, the DFS colours (neither flag is
	// white, entered alone gray, done black), and the recompute's state.
	const (
		inCone uint8 = 1 << iota
		entered
		done
		seed
		changed
	)
	x.cmark.begin(len(x.alive))
	cone := append([]int32(nil), seeds...)
	for _, s := range seeds {
		x.cmark.set(s, inCone|seed)
	}
	for qi := 0; qi < len(cone); qi++ {
		for _, p := range x.inC[cone[qi]] {
			if x.cmark.add(p.to, inCone) {
				cone = append(cone, p.to)
			}
		}
	}
	if x.tooDirty(len(cone)) {
		x.fullRebuild()
		return false
	}

	// Iterative DFS post-order over the cone-restricted DAG: every
	// cone member finishes after all of its cone successors.
	order := make([]int32, 0, len(cone))
	var stack []int32
	for _, root := range cone {
		if x.cmark.has(root, entered) {
			continue
		}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			switch f := x.cmark.get(w); {
			case f&entered == 0:
				x.cmark.set(w, entered)
				for _, d := range x.outC[w] {
					if g := x.cmark.get(d.to); g&inCone != 0 && g&entered == 0 {
						stack = append(stack, d.to)
					}
				}
			case f&done == 0:
				x.cmark.set(w, done)
				order = append(order, w)
				stack = stack[:len(stack)-1]
			default:
				stack = stack[:len(stack)-1]
			}
		}
	}

	// Change-pruned recompute, successors-first: a cone member is only
	// recomputed when it is a seed or one of its successors actually
	// changed — the recompute frontier stops as soon as fresh labels
	// equal old ones, so a delete deep in the DAG rarely touches more
	// than a handful of ancestors even when the cone is large.
	relabeled := 0
	for _, c := range order {
		need := x.cmark.has(c, seed)
		if !need {
			for _, d := range x.outC[c] {
				if x.cmark.has(d.to, changed) {
					need = true
					break
				}
			}
		}
		if !need {
			continue
		}
		sets := append(x.sets[:0], intervals.Singleton(x.post.at(c)))
		for _, d := range x.outC[c] {
			sets = append(sets, x.labels.at(d.to))
		}
		lbl := intervals.MergeManyCanonical(sets)
		x.releaseSets(sets)
		relabeled++
		if !lbl.Equal(x.labels.at(c)) {
			x.setLabel(c, lbl)
			x.cmark.set(c, changed)
		}
	}
	x.stats.ConeRelabels++
	x.stats.RelabeledComps += relabeled
	return true
}

// minPatchFrontier is an absolute floor under which a patch never
// falls back: on tiny graphs any frontier exceeds a fraction of the
// live components, yet patching is trivially cheap.
const minPatchFrontier = 16

// tooDirty reports whether a patch touching frontier components should
// fall back to a full rebuild.
func (x *Index) tooDirty(frontier int) bool {
	return frontier > minPatchFrontier &&
		float64(frontier) > x.opts.DirtyFraction*float64(x.liveComps)
}

// maybeCompact rebuilds when retired component slots outnumber live
// ones: the post space and the comp-indexed slices have become mostly
// garbage, and a rebuild re-densifies both.
func (x *Index) maybeCompact() {
	if x.deadComps > x.liveComps {
		x.fullRebuild()
	}
}
