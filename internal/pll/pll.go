// Package pll implements Pruned Landmark Labeling for reachability —
// the 2-hop labeling scheme behind the SpaReach-PLL variant evaluated by
// Sarwat and Sun (paper §2.2.1) and surveyed in §7.1.
//
// Every vertex u carries two sorted landmark lists: Out(u), landmarks
// reachable from u, and In(u), landmarks that reach u. Then u reaches v
// iff Out(u) ∩ In(v) ≠ ∅. Landmarks are processed in decreasing degree
// order; each landmark runs one forward and one backward BFS, pruned at
// any vertex whose reachability to/from the landmark is already covered
// by previously indexed landmarks. Processing every vertex as a landmark
// makes the labeling complete, so queries need no graph fallback.
package pll

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Index is a complete 2-hop reachability labeling over a DAG.
type Index struct {
	// out[v] and in[v] are sorted slices of landmark ranks.
	out, in [][]int32
	// rank[v] is v's landmark rank (0 = processed first).
	rank []int32
}

// Options configures Build.
type Options struct {
	// Seed drives the randomized tie-breaking among equal-degree
	// landmarks. On degree-uniform graphs (chains, grids) random ties
	// are what makes pruning effective — deterministic ties can degrade
	// to the full transitive closure.
	Seed int64
}

// Build constructs the index for the DAG g. It panics if g has a cycle;
// condense strongly connected components first.
func Build(g *graph.Graph, opts Options) *Index {
	n := g.NumVertices()
	if !g.IsDAG() {
		panic("pll: Build requires a DAG; condense SCCs first")
	}
	idx := &Index{
		out:  make([][]int32, n),
		in:   make([][]int32, n),
		rank: make([]int32, n),
	}

	// Landmark order: total degree descending (high-coverage hubs
	// first), ties broken by a random permutation.
	rng := rand.New(rand.NewSource(opts.Seed))
	tie := rng.Perm(n)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di := g.OutDegree(int(order[i])) + g.InDegree(int(order[i]))
		dj := g.OutDegree(int(order[j])) + g.InDegree(int(order[j]))
		if di != dj {
			return di > dj
		}
		return tie[order[i]] < tie[order[j]]
	})
	for r, v := range order {
		idx.rank[v] = int32(r)
	}

	visited := make([]int32, n)
	for i := range visited {
		visited[i] = -1
	}
	queue := make([]int32, 0, 64)

	for r, w := range order {
		rank := int32(r)
		// Forward BFS: w reaches x  =>  rank(w) ∈ In(x).
		queue = append(queue[:0], w)
		visited[w] = rank
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			if x != w && idx.covered(w, x) {
				continue // already answerable; prune the subtree
			}
			idx.in[x] = append(idx.in[x], rank)
			for _, y := range g.Out(int(x)) {
				if visited[y] != rank {
					visited[y] = rank
					queue = append(queue, y)
				}
			}
		}
		// Backward BFS: y reaches w  =>  rank(w) ∈ Out(y). Skip w itself
		// (the forward pass already recorded rank in In(w); Out gets it
		// here).
		queue = append(queue[:0], w)
		visited[w] = -2 - rank // distinct marker for the backward pass
		for len(queue) > 0 {
			y := queue[0]
			queue = queue[1:]
			if y != w && idx.covered(y, w) {
				continue
			}
			idx.out[y] = append(idx.out[y], rank)
			for _, x := range g.In(int(y)) {
				if visited[x] != -2-rank {
					visited[x] = -2 - rank
					queue = append(queue, x)
				}
			}
		}
	}
	return idx
}

// covered reports whether reachability u→v is already witnessed by the
// labels built so far. Labels are appended in increasing rank order, so
// they are always sorted.
func (idx *Index) covered(u, v int32) bool {
	return intersects(idx.out[u], idx.in[v])
}

// intersects reports whether two sorted slices share an element.
func intersects(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Reach answers GReach(u, v): whether the DAG contains a path from u to
// v. Reach(v, v) is true.
func (idx *Index) Reach(u, v int) bool {
	if u == v {
		return true
	}
	return intersects(idx.out[u], idx.in[v])
}

// MemoryBytes returns the label footprint (4 bytes per entry plus the
// rank array), for the Table 4-style accounting.
func (idx *Index) MemoryBytes() int64 {
	var total int64
	for v := range idx.out {
		total += int64(4 * (len(idx.out[v]) + len(idx.in[v])))
	}
	return total + int64(4*len(idx.rank))
}
