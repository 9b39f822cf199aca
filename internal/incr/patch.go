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
	x.post = append(x.post, x.maxPost)
	x.labels = append(x.labels, nil)
	x.liveComps++
	return c
}

// addDAGEdge increments the refcount of DAG edge (cu, cv) — the number
// of original edges collapsing onto it — and returns the new count.
func (x *Index) addDAGEdge(cu, cv int32) int32 {
	if x.outC[cu] == nil {
		x.outC[cu] = make(map[int32]int32)
	}
	if x.inC[cv] == nil {
		x.inC[cv] = make(map[int32]int32)
	}
	x.outC[cu][cv]++
	x.inC[cv][cu]++
	return x.outC[cu][cv]
}

// propagate merges add into the labels of the source components and
// every ancestor, pruning branches whose label already covers add.
// Labels are replaced with freshly merged sets, never mutated, so
// published snapshots stay intact. Epoch-stamped marks bound the walk to
// one visit per component: without them a dense ancestor DAG re-enqueues
// a component once per path, which made core merges quadratic on
// fragmented networks.
func (x *Index) propagate(sources []int32, add intervals.Set) {
	for len(x.compSeen) < len(x.alive) {
		x.compSeen = append(x.compSeen, 0)
	}
	x.compEpoch++
	ep := x.compEpoch
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if x.compSeen[s] != ep {
			x.compSeen[s] = ep
			queue = append(queue, s)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		w := queue[qi]
		if x.labels[w].CoversCanonical(add) {
			continue
		}
		x.labels[w] = intervals.MergeCanonical(x.labels[w], add)
		for p := range x.inC[w] {
			if x.compSeen[p] != ep {
				x.compSeen[p] = ep
				queue = append(queue, p)
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
	toCU := map[int32]bool{cu: true}
	stack := []int32{cu}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := range x.inC[c] {
			if !toCU[p] {
				toCU[p] = true
				stack = append(stack, p)
			}
		}
	}
	if !toCU[cv] {
		return nil
	}
	affected := []int32{cv}
	inA := map[int32]bool{cv: true}
	for qi := 0; qi < len(affected); qi++ {
		for d := range x.outC[affected[qi]] {
			if !inA[d] && toCU[d] {
				inA[d] = true
				affected = append(affected, d)
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
	inA := make(map[int32]bool, len(affected))
	for _, c := range affected {
		inA[c] = true
	}

	// Survivor: largest member list, so the fewest vertices re-point.
	r := affected[0]
	for _, c := range affected {
		if len(x.members[c]) > len(x.members[r]) {
			r = c
		}
	}

	sets := make([]intervals.Set, 0, len(affected))
	sets = append(sets, x.labels[r])
	for _, c := range affected {
		if c != r {
			sets = append(sets, x.labels[c])
		}
	}
	lbl := intervals.MergeManyCanonical(sets)

	// Rewire DAG adjacency: external edges of absorbed components move
	// to the survivor (refcounts add); edges internal to the merged
	// region disappear.
	for _, c := range affected {
		if c == r {
			continue
		}
		for d, cnt := range x.outC[c] {
			delete(x.inC[d], c)
			if !inA[d] {
				x.addDAGEdgeCount(r, d, cnt)
			}
		}
		for d, cnt := range x.inC[c] {
			delete(x.outC[d], c)
			if !inA[d] {
				x.addDAGEdgeCount(d, r, cnt)
			}
		}
	}
	for d := range x.outC[r] {
		if inA[d] {
			delete(x.outC[r], d)
		}
	}
	for d := range x.inC[r] {
		if inA[d] {
			delete(x.inC[r], d)
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
			x.comp[m] = r
			if x.spatial[m] {
				moved = append(moved, m)
			}
		}
		x.members[r] = append(x.members[r], x.members[c]...)
		x.members[c] = nil
		x.labels[c] = nil
		x.outC[c] = nil
		x.inC[c] = nil
		x.post[c] = 0
		x.alive[c] = false
		x.liveComps--
		x.deadComps++
	}
	x.labels[r] = lbl
	preds := make([]int32, 0, len(x.inC[r]))
	for p := range x.inC[r] {
		preds = append(preds, p)
	}
	x.propagate(preds, lbl)
	for _, m := range moved {
		x.patchVenue(m)
	}
	x.stats.Merges++
	x.maybeCompact()
}

// addDAGEdgeCount is addDAGEdge with an explicit refcount delta, used
// when merging adjacency maps.
func (x *Index) addDAGEdgeCount(cu, cv int32, cnt int32) {
	if x.outC[cu] == nil {
		x.outC[cu] = make(map[int32]int32)
	}
	if x.inC[cv] == nil {
		x.inC[cv] = make(map[int32]int32)
	}
	x.outC[cu][cv] += cnt
	x.inC[cv][cu] += cnt
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
// A bidirectional probe grows R forward from u and B backward from v
// in lockstep; the moment they touch, u→v survives and the component
// is still whole — nearly free in a dense component. On a real split
// the probes pin down piece(u) and piece(v) exactly, and an SCC pass
// runs only over the (typically empty) members outside both. The most
// populous piece keeps c's id, post, and venue keys, and only departed
// members have their comp ids, DAG edges, and venue entries re-derived:
// peeling a few vertices off a giant component costs the departed
// members' degree, not the giant's.
func (x *Index) splitCheck(c int32, u, v int) {
	x.stats.SplitChecks++
	m := x.members[c]
	if len(m) == 1 || u == v {
		return
	}
	nR, nB, meet := x.bidiProbe(c, u, v)
	if meet {
		return // u still reaches v: still strongly connected
	}

	// Decompose the remainder m∖(R∪B) into SCCs over its induced
	// subgraph. Pieces: 0 is R, 1 is B, 2+k is remainder SCC k.
	rest := make([]int32, 0, len(m)-nR-nB)
	local := make(map[int32]int32)
	for _, w := range m {
		if x.fwdSeen[w] != x.probeEpoch && x.bwdSeen[w] != x.probeEpoch {
			local[w] = int32(len(rest))
			rest = append(rest, w)
		}
	}
	b := graph.NewBuilder(len(rest))
	for i, w := range rest {
		for _, y := range x.out[w] {
			if ly, ok := local[y]; ok {
				b.AddEdge(i, int(ly))
			}
		}
	}
	lcomp, rcnt := b.Build().SCCs()
	cnt := rcnt + 2

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
	for i := range rest {
		sizes[2+lcomp[i]]++
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
	departed := make(map[int32]bool, len(m)-sizes[keep])
	kept := m[:0:0]
	for _, w := range m {
		var k int
		switch {
		case x.fwdSeen[w] == x.probeEpoch:
			k = 0
		case x.bwdSeen[w] == x.probeEpoch:
			k = 1
		default:
			k = 2 + int(lcomp[local[w]])
		}
		nc := pieceID[k]
		if nc == c {
			kept = append(kept, w)
			continue
		}
		departed[w] = true
		x.comp[w] = nc
		x.members[nc] = append(x.members[nc], w)
	}
	x.members[c] = kept

	// Re-derive only the DAG edges incident to departed members. Edges
	// between two departed members surface once, through the tail's out
	// list; edges to or from the kept piece were intra-component and
	// appear for the first time; edges crossing the old component
	// boundary move their refcount from c to the departed piece.
	repointed := make(map[int32]bool)
	for w := range departed {
		pw := x.comp[w]
		for _, y := range x.out[w] {
			switch cy := x.comp[y]; {
			case departed[y] || cy == c:
				if cy != pw {
					x.addDAGEdge(pw, cy)
				}
			default:
				x.decDAGEdge(c, cy)
				x.addDAGEdge(pw, cy)
			}
		}
		for _, y := range x.in[w] {
			if departed[y] {
				continue // covered by y's out list
			}
			if cy := x.comp[y]; cy == c {
				x.addDAGEdge(c, pw)
			} else {
				x.decDAGEdge(cy, c)
				x.addDAGEdge(cy, pw)
				repointed[cy] = true
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
			if nc == c || x.labels[nc] != nil {
				continue
			}
			ready := true
			for d := range x.outC[nc] {
				if x.labels[d] == nil {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			sets := make([]intervals.Set, 0, len(x.outC[nc])+1)
			sets = append(sets, intervals.Singleton(x.post[nc]))
			for d := range x.outC[nc] {
				sets = append(sets, x.labels[d])
			}
			x.labels[nc] = intervals.MergeManyCanonical(sets)
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
		fresh = fresh.Add(x.post[nc], x.post[nc])
		for p := range x.inC[nc] {
			preds = append(preds, p)
		}
	}
	x.propagate(preds, fresh.Compress())
	// Shrinks are deferred: labels above the split may still cover reach
	// that went only through departed members. The seeds are every piece
	// plus every external predecessor whose DAG edge was re-pointed off
	// c — the flush's change-pruned relabel reacts to successor-label
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
	for cy := range repointed {
		x.pending[cy] = true
	}
	// Kept members hold their post (and venue z keys); only departed
	// venues re-key.
	for w := range departed {
		if x.spatial[w] {
			x.patchVenue(w)
		}
	}
	x.stats.Splits++
	x.maybeCompact()
}

// bidiProbe grows u's forward-reachable set R and v's backward-
// reachable set B inside component c, alternating one vertex expansion
// per side. If the probes touch (some vertex is in both, so u→v
// survives) it reports meet=true immediately. Otherwise it runs both
// to completion and returns |R| and |B|; membership is readable via
// fwdSeen/bwdSeen stamped with the current probeEpoch. Once one side
// exhausts without meeting, the other can never touch it — a vertex in
// both sets would give a surviving u→v path, contradicting the
// exhausted search — so no collision checks are needed after that.
func (x *Index) bidiProbe(c int32, u, v int) (nR, nB int, meet bool) {
	for len(x.fwdSeen) < x.n {
		x.fwdSeen = append(x.fwdSeen, 0)
		x.bwdSeen = append(x.bwdSeen, 0)
	}
	x.probeEpoch++
	ep := x.probeEpoch
	x.fwdSeen[u] = ep
	x.bwdSeen[v] = ep
	fq, bq := []int32{int32(u)}, []int32{int32(v)}
	nR, nB = 1, 1
	for len(fq) > 0 || len(bq) > 0 {
		if len(fq) > 0 {
			w := fq[0]
			fq = fq[1:]
			for _, y := range x.out[w] {
				if x.comp[y] != c || x.fwdSeen[y] == ep {
					continue
				}
				if x.bwdSeen[y] == ep {
					return 0, 0, true // u→y and y→v: no split
				}
				x.fwdSeen[y] = ep
				nR++
				fq = append(fq, y)
			}
		}
		if len(bq) > 0 {
			w := bq[0]
			bq = bq[1:]
			for _, y := range x.in[w] {
				if x.comp[y] != c || x.bwdSeen[y] == ep {
					continue
				}
				if x.fwdSeen[y] == ep {
					return 0, 0, true // u→y and y→v: no split
				}
				x.bwdSeen[y] = ep
				nB++
				bq = append(bq, y)
			}
		}
	}
	return nR, nB, false
}

// decDAGEdge removes one refcount from the DAG edge cu→cv, deleting
// the edge when it reaches zero.
func (x *Index) decDAGEdge(cu, cv int32) {
	x.outC[cu][cv]--
	if x.outC[cu][cv] <= 0 {
		delete(x.outC[cu], cv)
		delete(x.inC[cv], cu)
	} else {
		x.inC[cv][cu]--
	}
}

// relabelCone recomputes the labels of the seed components and every
// ancestor, successors-first: L(c) = {post(c)} ∪ ⋃ L(d) over DAG
// successors d. Successors outside the cone keep their (correct)
// labels and are read as-is. Falls back to a full rebuild — and
// reports it by returning false — when the cone exceeds the dirty
// fraction of live components.
func (x *Index) relabelCone(seeds []int32) bool {
	inCone := make(map[int32]bool, len(seeds))
	cone := append([]int32(nil), seeds...)
	for _, s := range seeds {
		inCone[s] = true
	}
	for qi := 0; qi < len(cone); qi++ {
		w := cone[qi]
		for p := range x.inC[w] {
			if !inCone[p] {
				inCone[p] = true
				cone = append(cone, p)
			}
		}
	}
	if x.tooDirty(len(cone)) {
		x.fullRebuild()
		return false
	}

	// Iterative DFS post-order over the cone-restricted DAG: every
	// cone member finishes after all of its cone successors.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[int32]uint8, len(cone))
	var order []int32
	var stack []int32
	for _, root := range cone {
		if state[root] != white {
			continue
		}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			switch state[w] {
			case white:
				state[w] = gray
				for d := range x.outC[w] {
					if inCone[d] && state[d] == white {
						stack = append(stack, d)
					}
				}
			case gray:
				state[w] = black
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
	seedSet := make(map[int32]bool, len(seeds))
	for _, s := range seeds {
		seedSet[s] = true
	}
	changed := make(map[int32]bool, len(seeds))
	relabeled := 0
	for _, c := range order {
		need := seedSet[c]
		if !need {
			for d := range x.outC[c] {
				if changed[d] {
					need = true
					break
				}
			}
		}
		if !need {
			continue
		}
		sets := make([]intervals.Set, 0, len(x.outC[c])+1)
		sets = append(sets, intervals.Singleton(x.post[c]))
		for d := range x.outC[c] {
			sets = append(sets, x.labels[d])
		}
		lbl := intervals.MergeManyCanonical(sets)
		relabeled++
		if !lbl.Equal(x.labels[c]) {
			x.labels[c] = lbl
			changed[c] = true
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
