package incr

import (
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
	x.cov.grow()
	x.liveComps++
	return c
}

// propagate merges add into the labels of the source components and
// every ancestor, pruning branches whose label already covers add.
// Labels are replaced with freshly merged sets, never mutated, so
// published snapshots stay intact. Epoch-stamped marks bound the walk to
// one visit per component: without them a dense ancestor DAG re-enqueues
// a component once per path, which made core merges quadratic on
// fragmented networks. Each visit spends the intervals it compares and
// the in-row it reads; the walk stops where the epoch's budget runs out.
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
		lw := x.labels.at(w)
		cost := len(lw) + len(add)
		if !lw.CoversCanonical(add) {
			x.setLabel(w, intervals.MergeCanonical(lw, add))
			for _, p := range x.inC[w] {
				if x.cmark.add(p.to, seen) {
					queue = append(queue, p.to)
				}
			}
			cost += len(x.inC[w])
		}
		if x.spend(cost) {
			return
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

	// An absorbed counted component stops being counted; the survivor
	// recounts below if its row qualifies.
	recount := x.cov.c >= 0 && x.cov.c != r && x.cmark.has(x.cov.c, merging)
	if recount {
		x.cov.c = -1
	}

	// Rewire DAG adjacency: external edges of absorbed components move
	// to the survivor (refcounts add); edges internal to the merged
	// region disappear. The survivor's own rows lose only the absorbed
	// ids, found by search: the giant's rows have tens of thousands of
	// entries, and a region a handful.
	for _, c := range affected {
		x.countEdge(r, c, false)
	}
	x.outC[r] = x.outC[r].removeAll(affected)
	x.inC[r] = x.inC[r].removeAll(affected)
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
				x.countEdge(e.to, c, false)
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
	if recount {
		x.countIfWide(r)
	}
	preds := make([]int32, 0, len(x.inC[r]))
	for _, p := range x.inC[r] {
		preds = append(preds, p.to)
	}
	x.stats.Merges++
	if x.propagate(preds, lbl); x.dirty {
		return
	}
	for _, m := range moved {
		x.patchVenue(m)
	}
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
// piece(u) and piece(v), certified rather than traversed where one of
// them is the giant, and an SCC pass runs only over the (typically
// small) members placed in neither. The most populous piece keeps c's id,
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
	if meet || x.dirty {
		return // u still reaches v: still strongly connected; or out of budget
	}

	// Decompose the rest — the members no certificate placed — into SCCs
	// over its induced subgraph: after a certificate, the closures it
	// peeled off (x.loose), which are small; without one, everything
	// outside R and B. Pieces: 0 is R, 1 is B, then the certified
	// remainder if there is one, then rest SCC k. After a certified peel
	// the unplaced members are the other endpoint's piece; after a
	// certified pivot they are one piece of their own.
	inRest := func(f uint8) bool { return f&loose != 0 || peeled == 0 && f&(inR|inB) == 0 }
	rest := x.loose
	if peeled == 0 {
		rest = make([]int32, 0, len(m)-nR-nB)
		for _, w := range m {
			if inRest(x.vmark.get(w)) {
				rest = append(rest, w)
			}
		}
	}
	if grow := x.n - len(x.restSlot); grow > 0 {
		x.restSlot = append(x.restSlot, make([]int32, grow)...)
	}
	for i, w := range rest {
		x.restSlot[w] = int32(i)
	}
	x.probeSteps += len(rest)
	if x.spend(len(rest)) {
		return
	}
	b := graph.NewBuilder(len(rest))
	for i, w := range rest {
		for _, y := range x.out[w] {
			if x.comp.at(y) == c && inRest(x.vmark.get(y)) {
				b.AddEdge(i, int(x.restSlot[y]))
			}
		}
	}
	lcomp, rcnt := b.Build().SCCs()
	first := 2 // the first rest SCC's piece
	if peeled == inR|inB {
		first = 3
	}
	cnt := first + rcnt
	pieceOf := func(w int32) int {
		switch f := x.vmark.get(w); {
		case f&inR != 0:
			return 0
		case f&inB != 0:
			return 1
		case inRest(f):
			return first + int(lcomp[x.restSlot[w]])
		case peeled == inR:
			return 1
		case peeled == inB:
			return 0
		default:
			return 2
		}
	}

	// The most populous piece inherits c; the rest get fresh ids.
	sizes := make([]int, cnt)
	sizes[0], sizes[1] = nR, nB
	if first == 3 {
		sizes[2] = len(m) - nR - nB - len(rest)
	}
	for _, k := range lcomp {
		sizes[first+int(k)]++
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
	// that went only through departed members. The seeds are every fresh
	// piece, the kept piece if it lost a DAG successor, and every
	// external predecessor whose DAG edge is re-pointed off c below — the
	// flush's change-pruned relabel reacts to successor-label changes but
	// cannot see successor-set changes, so comps whose edge sets this
	// split rewired must be recomputed unconditionally. A kept piece
	// that lost no successor still has every external successor c had,
	// and every departed piece's external successors are among them: its
	// exact label is its old one plus the fresh posts of the pieces it
	// reaches, which the propagate below adds. So re-deriving it — on
	// the giant, a sweep over the whole post range — would change
	// nothing. Every old ancestor of c that may shrink
	// reaches one of these seeds, so the entire shrink cone sits inside
	// the next flush.
	if x.pending == nil {
		x.pending = make(map[int32]bool)
	}
	for _, nc := range pieceID {
		if nc != c {
			x.pending[nc] = true
		}
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
				if x.decDAGEdge(c, cy) == 0 {
					x.pending[c] = true // the kept piece lost cy
				}
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
	// Every ancestor of a fresh piece must cover the fresh posts it
	// reaches; the rest of a piece's reach was already covered above the
	// split — any current path into a piece enters through an edge whose
	// tail reached c before — so those are the only new coverage to
	// push. They must be exactly the ones it reaches: the kept piece is
	// often no seed, so nothing would heal a fresh post it does not
	// reach. The fresh posts were allocated consecutively above every
	// older one, so the ones a piece reaches are the top of its label,
	// typically one interval: one cheap merge per ancestor.
	lowest := x.maxPost - int32(cnt-1) + 1
	x.stats.Splits++
	for _, nc := range pieceID {
		if nc == c {
			continue
		}
		preds := make([]int32, 0, len(x.inC[nc]))
		for _, p := range x.inC[nc] {
			preds = append(preds, p.to)
		}
		if x.propagate(preds, atOrAbove(x.labels.at(nc), lowest)); x.dirty {
			return
		}
	}
	// Kept members hold their post (and venue z keys); only departed
	// venues re-key.
	for _, w := range gone {
		if x.spatial.at(w) {
			x.patchVenue(w)
		}
	}
	x.maybeCompact()
}

// atOrAbove returns a copy of the part of the canonical set s at or
// above lo.
func atOrAbove(s intervals.Set, lo int32) intervals.Set {
	i := len(s)
	for i > 0 && s[i-1].Hi >= lo {
		i--
	}
	top := append(intervals.Set(nil), s[i:]...)
	if len(top) > 0 {
		top[0].Lo = max(top[0].Lo, lo)
	}
	return top
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
	loose                      // a certificate peeled it with its closure: the SCC pass places it
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
// BFS that can carry on after a touch. It spends one unit of the
// epoch's budget.
func (x *Index) expand(c int32, s, other *closure, skip uint8) (touched bool) {
	w := s.q[s.head]
	s.head++
	x.probeSteps++
	x.spend(1)
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
// certified: every border vertex of S must meet the other endpoint's
// closure (certify), and if that closure runs dry first, the members in
// neither closure must form one piece (pivotCertificate). A certificate
// may peel small closures off T on the way (flagged loose, listed in
// x.loose), which splitCheck's SCC pass decomposes. On success peeled
// names the closures that are whole pieces: S's flag, the rest being
// the other endpoint's piece, or both flags, the rest being one more
// piece. Only when a certificate fails, or gives up, does the other side
// run to completion as well, leaving R and B both readable from vmark
// and everything else to the SCC pass. A probe that runs out of the
// epoch's budget stops wherever it is, with the epoch dirty.
func (x *Index) probeSplit(c, u, v int32) (nR, nB int, peeled uint8, meet bool) {
	x.vmark.begin(x.n)
	x.loose = x.loose[:0]
	fwd, bwd := &x.fwd, &x.bwd
	fwd.start(x.out, &x.vmark, inR, u)
	bwd.start(x.in, &x.vmark, inB, v)
	whole, part := fwd, bwd
	for !fwd.exhausted() && !x.dirty {
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
	// The certificates share one budget: past |m| expansions, traversing
	// is no dearer.
	members := len(x.members[c])
	limit := x.probeSteps + members
	ok, dry := x.certify(c, whole.q, whole.adj, part, whole.bit|loose, limit)
	switch {
	case ok && whole == fwd:
		return len(fwd.q), members - len(fwd.q) - len(x.loose), inR, false
	case ok:
		return members - len(bwd.q) - len(x.loose), len(bwd.q), inB, false
	case dry && x.pivotCertificate(c, whole, part, limit):
		return len(fwd.q), len(bwd.q), inR | inB, false
	}
	for !part.exhausted() && !x.dirty {
		x.expand(c, part, whole, 0)
	}
	return len(fwd.q), len(bwd.q), 0, false
}

// certify is the peel certificate: it reports whether T, the members of
// c not flagged closed, is still strongly connected, S being the piece
// whose vertices src lists. It rests on a lemma (DESIGN.md §15, with
// S = R; S = B is its mirror image):
//
//	G'[T] is strongly connected iff every x ∈ T with an edge into R
//	still reaches v inside T.
//
// So for each such border vertex — read along target.adj from S — it
// runs the split probe's lockstep search again, now restricted to T: a
// fresh search along search from the border vertex against target, the
// unfinished closure of the other endpoint, which keeps growing across
// border vertices (inside T it is exactly the closure it was growing in
// m, since no path to v passes through the successor-closed R). In the
// giant component every border vertex meets target within a few
// expansions.
//
// A search that runs dry first has found a closure P that misses v: P
// is closed as R is, so R ∪ P is successor-closed too, and the lemma
// holds for it with T∖P, by the same proof. So P is peeled as well —
// flagged loose and appended to x.loose, which is scanned as sources
// after src — and the certificate goes on. (A closure peeled to the
// other side, by an earlier call, has no border in this direction:
// it is closed the other way, so scanning it finds nothing.)
// It answers false when the searches have expanded past limit
// (traversing is then no dearer) or the epoch's budget has run out, and
// false with dry when target runs dry first: the other endpoint's piece
// is then complete and small, and pivotCertificate takes over. pivotCertificate also calls certify,
// with z₀'s closure as target.
func (x *Index) certify(c int32, src []int32, search [][]int32, target *closure, closed uint8, limit int) (ok, dry bool) {
	const asked = 1 // a border vertex a search has started from
	x.askMark.begin(x.n)
	peel := &x.peel
	for i := 0; ; i++ {
		var s int32
		switch j := i - len(src); {
		case j < 0:
			s = src[i]
		case j < len(x.loose):
			s = x.loose[j]
		default:
			return true, false
		}
		for _, y := range target.adj[s] {
			if x.comp.at(y) != c || x.vmark.has(y, closed) || !x.askMark.add(y, asked) || target.marks.has(y, target.bit) {
				continue
			}
			x.peelMark.begin(x.n)
			peel.start(search, &x.peelMark, 1, y)
			for {
				if x.probeSteps > limit || x.dirty {
					return false, false
				}
				if x.expand(c, peel, target, closed) {
					break
				}
				if peel.exhausted() {
					for _, p := range peel.q {
						x.vmark.set(p, loose)
					}
					x.loose = append(x.loose, peel.q...)
					break
				}
				if target.exhausted() {
					return false, true
				}
				if x.expand(c, target, peel, closed) {
					break
				}
			}
		}
	}
}

// pivotCertificate handles the shape in which both closures ran dry —
// typically u and v each a stream vertex, the edge between them the
// giant's only way through both: R and B are whole pieces, and X, the
// members in neither and not peeled, is the giant. The lemma (DESIGN.md
// §15) reads, for any z₀ ∈ X: G'[X] is strongly connected iff every
// vertex of X with an edge into R reaches z₀ inside X, and z₀ reaches,
// inside X, every vertex of X that B has an edge to. Two certify calls
// check the halves, each against z₀'s own closure and each free to
// peel further; z₀ is taken among the vertices the closure that ran
// dry second has an edge to (or from), so one of them holds at once.
func (x *Index) pivotCertificate(c int32, whole, part *closure, limit int) bool {
	const closed = inR | inB | loose
	z0 := int32(-1)
	for _, s := range part.q {
		for _, y := range whole.adj[s] {
			if x.comp.at(y) == c && !x.vmark.has(y, closed) {
				z0 = y
				break
			}
		}
		if z0 >= 0 {
			break
		}
	}
	if z0 < 0 {
		return false
	}
	pivot := &x.pivot
	x.pivotMark.begin(x.n)
	pivot.start(part.adj, &x.pivotMark, 1, z0)
	if ok, _ := x.certify(c, whole.q, whole.adj, pivot, closed, limit); !ok {
		return false
	}
	x.pivotMark.begin(x.n)
	pivot.start(whole.adj, &x.pivotMark, 1, z0)
	ok, _ := x.certify(c, part.q, part.adj, pivot, closed, limit)
	return ok
}

// relabelCone recomputes the labels of the seed components and every
// ancestor, successors-first: L(c) = {post(c)} ∪ ⋃ L(d) over DAG
// successors d. Successors outside the cone keep their (correct)
// labels and are read as-is. Each derive spends what it reads; the pass
// stops where the epoch's budget runs out.
func (x *Index) relabelCone(seeds []int32) {
	// Flags in cmark: cone membership, and whether the member must be
	// recomputed — it is a seed, or a cone successor's label changed in
	// this pass.
	const (
		inCone uint8 = 1 << iota
		need
	)
	x.cmark.begin(len(x.alive))
	if grow := len(x.alive) - len(x.coneSucc); grow > 0 {
		x.coneSucc = append(x.coneSucc, make([]int32, grow)...)
	}
	cone := append([]int32(nil), seeds...)
	for _, s := range seeds {
		x.cmark.set(s, inCone|need)
		x.coneSucc[s] = 0
	}
	// The cone is closed under predecessors, so every entry of a member's
	// in-row is a member too, and counting those entries gives each member
	// its number of cone successors — without reading any out-row, which
	// on the giant holds one entry per venue.
	for qi := 0; qi < len(cone); qi++ {
		for _, p := range x.inC[cone[qi]] {
			if x.cmark.add(p.to, inCone) {
				x.coneSucc[p.to] = 0
				cone = append(cone, p.to)
			}
			x.coneSucc[p.to]++
		}
	}

	// Change-pruned recompute in Kahn order over the in-rows: a member is
	// ready once all of its cone successors are done, and it is only
	// recomputed when it needs to be — the recompute frontier stops as
	// soon as fresh labels equal old ones, so a delete deep in the DAG
	// rarely touches more than a handful of ancestors even when the cone
	// is large.
	ready := make([]int32, 0, len(cone))
	for _, c := range cone {
		if x.coneSucc[c] == 0 {
			ready = append(ready, c)
		}
	}
	relabeled := 0
	for qi := 0; qi < len(ready); qi++ {
		c := ready[qi]
		changed := false
		if x.cmark.has(c, need) {
			lbl := x.derive(c)
			if x.dirty {
				return
			}
			relabeled++
			if changed = !lbl.Equal(x.labels.at(c)); changed {
				x.setLabel(c, lbl)
			}
		}
		for _, p := range x.inC[c] {
			if changed {
				x.cmark.set(p.to, need)
			}
			if x.coneSucc[p.to]--; x.coneSucc[p.to] == 0 {
				ready = append(ready, p.to)
			}
		}
	}
	x.stats.ConeRelabels++
	x.stats.RelabeledComps += relabeled
}

// derive computes {post(c)} ∪ ⋃ L(d) over c's DAG successors d from
// their stored labels: by a sweep of the count if c is the counted
// component, by a merge otherwise, and spends the posts swept or the
// out-row and intervals merged.
func (x *Index) derive(c int32) intervals.Set {
	if c == x.cov.c {
		x.spend(len(x.cov.delta))
		return x.cov.label()
	}
	sets := append(x.sets[:0], intervals.Singleton(x.post.at(c)))
	cost := 1 + len(x.outC[c])
	for _, d := range x.outC[c] {
		sets = append(sets, x.labels.at(d.to))
		cost += len(x.labels.at(d.to))
	}
	x.relabelReads += len(x.outC[c])
	x.spend(cost)
	lbl := intervals.MergeManyCanonical(sets)
	x.releaseSets(sets)
	return lbl
}

// maybeCompact rebuilds when retired component slots outnumber live
// ones: the post space and the comp-indexed slices have become mostly
// garbage, and a rebuild re-densifies both.
func (x *Index) maybeCompact() {
	if x.deadComps > x.liveComps {
		x.fullRebuild()
	}
}
