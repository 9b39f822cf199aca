package labeling

import (
	"cmp"
	"container/heap"
	"slices"

	"repro/internal/graph"
	"repro/internal/intervals"
)

// BuildAlgorithm1 constructs the labeling by following the paper's
// Algorithm 1 faithfully:
//
//  1. compute the spanning forest F of g and assign post-order numbers by
//     traversing its trees (lines 1–4);
//  2. initialize L(v) = {[post(v), post(v)]} (lines 5–6), seed a priority
//     queue with the forest roots (lines 7–9), and drain it: for the
//     popped vertex v and every spanning-forest edge (v, u), copy L(u)
//     into L(v) and then into every label-based ancestor of v, pushing u
//     (lines 10–18). The priority of a vertex is its number of incoming
//     edges in g, ties broken by post-order number, so roots are examined
//     first;
//  3. examine the non-spanning edges sorted by the post-order number of
//     their source, copying labels the same way (lines 19–24);
//  4. compress every label set (lines 25–26).
//
// Ancestors are located with a stabbing query on post(v) over the current
// labels — the interval-indexed lookup the paper describes — served by an
// intervals.StabTree.
//
// The result is identical to Build's (property-tested); BuildAlgorithm1
// costs O(|TC|·log|V|) because it materializes descendant singletons, so
// prefer Build for large networks. It panics if g is not a DAG.
func BuildAlgorithm1(g *graph.Graph, opts Options) *Labeling {
	return BuildAlgorithm1WithForest(g, graph.NewSpanningForest(g, opts.Forest), opts)
}

// BuildAlgorithm1WithForest is BuildAlgorithm1 with an explicitly
// supplied spanning forest; see BuildWithForest.
func BuildAlgorithm1WithForest(g *graph.Graph, forest *graph.SpanningForest, opts Options) *Labeling {
	n := g.NumVertices()
	sets := make([]intervals.Set, n)

	// Labels are propagated as descendant-post singletons; covered[v]
	// tracks set membership so that unions follow set semantics.
	covered := make([]map[int32]struct{}, n)
	stab := intervals.NewStabTree(n)
	addPost := func(v int32, p int32) bool {
		if _, ok := covered[v][p]; ok {
			return false
		}
		covered[v][p] = struct{}{}
		sets[v] = append(sets[v], intervals.Interval{Lo: p, Hi: p})
		stab.Insert(intervals.Interval{Lo: p, Hi: p}, v)
		return true
	}

	// Lines 5–6: initialize L(v) with the vertex's own post number.
	for v := 0; v < n; v++ {
		covered[v] = make(map[int32]struct{}, 1)
		addPost(int32(v), forest.Post[v])
	}

	// copyLabels performs L(dst) ∪= L(src).
	copyLabels := func(dst, src int32) {
		if dst == src {
			return
		}
		for p := range covered[src] {
			addPost(dst, p)
		}
	}

	// propagateToAncestors copies L(v) to every vertex whose current
	// labels contain post(v) (lines 14–15 / 23–24). stamp deduplicates
	// owners reported once per covering segment of the stab tree.
	stamp := make([]int32, n)
	var stampGen int32
	propagateToAncestors := func(v int32) {
		stampGen++
		pv := forest.Post[v]
		stab.Stab(pv, func(w int32) bool {
			if w == v || stamp[w] == stampGen {
				return true
			}
			stamp[w] = stampGen
			copyLabels(w, v)
			return true
		})
	}

	// Lines 7–9: seed the queue with the forest roots.
	pq := &vertexQueue{indeg: make([]int32, n), post: forest.Post}
	for v := 0; v < n; v++ {
		pq.indeg[v] = int32(g.InDegree(v))
	}
	inQueue := make([]bool, n)
	for _, r := range forest.Roots {
		heap.Push(pq, r)
		inQueue[r] = true
	}

	// Lines 10–18: drain the queue over spanning-forest edges.
	for pq.Len() > 0 {
		v := heap.Pop(pq).(int32)
		inQueue[v] = false
		changed := false
		for i, u := range g.Out(int(v)) {
			if !forest.IsTreeEdge(int(v), i) {
				continue
			}
			copyLabels(v, u)
			changed = true
			if !inQueue[u] {
				heap.Push(pq, u)
				inQueue[u] = true
			}
		}
		if changed {
			propagateToAncestors(v)
		}
	}

	// Lines 19–24: non-spanning edges, sorted by source post-order.
	// The order among one source's edges does not matter: labels are
	// sets, and the final compression makes them canonical.
	nonTree := forest.NonTreeEdges()
	slices.SortFunc(nonTree, func(a, b [2]int32) int { return cmp.Compare(forest.Post[a[0]], forest.Post[b[0]]) })
	for _, e := range nonTree {
		v, u := e[0], e[1]
		copyLabels(v, u)
		propagateToAncestors(v)
	}

	// Compress (lines 25–26). The set semantics keep every descendant
	// singleton once, so finish counts the "uncompressed" labels of
	// Table 6 from the compressed sets' cardinalities.
	for v := range sets {
		sets[v] = sets[v].Compress()
	}
	l := &Labeling{Post: forest.Post, Order: forest.Order}
	l.finish(sets, opts)
	return l
}

// vertexQueue is the priority queue of Algorithm 1: vertices ordered by
// number of incoming edges in the input network (ascending), ties broken
// by post-order number (ascending), so that forest roots — which have
// zero incoming edges — are always examined first.
type vertexQueue struct {
	items []int32
	indeg []int32
	post  []int32
}

func (q *vertexQueue) Len() int { return len(q.items) }

func (q *vertexQueue) Less(i, j int) bool {
	vi, vj := q.items[i], q.items[j]
	if q.indeg[vi] != q.indeg[vj] {
		return q.indeg[vi] < q.indeg[vj]
	}
	return q.post[vi] < q.post[vj]
}

func (q *vertexQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *vertexQueue) Push(x any) { q.items = append(q.items, x.(int32)) }

func (q *vertexQueue) Pop() any {
	v := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	return v
}
