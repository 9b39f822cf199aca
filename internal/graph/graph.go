// Package graph implements the directed-graph substrate of the geosocial
// reachability library: a compact adjacency representation, traversals,
// topological ordering, Tarjan's strongly-connected-components algorithm
// and DAG condensation (paper §5).
//
// Vertices are dense integer ids in [0, NumVertices). The package is
// deliberately free of any spatial knowledge; geosocial concerns live in
// internal/dataset and internal/core.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph. It tolerates
// duplicate edges (deduplicated on Build) and self-loops (dropped on
// Build, as they carry no reachability information).
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the directed edge (from, to). It panics if either
// endpoint is out of range, as that is always a programming error.
func (b *Builder) AddEdge(from, to int) {
	if from < 0 || from >= b.n || to < 0 || to >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, b.n))
	}
	// Double when full: append grows a large slice by a quarter, which
	// for a million-edge file copies the list about four times over.
	if m := len(b.edges); m > 0 && m == cap(b.edges) {
		b.Grow(m)
	}
	b.edges = append(b.edges, [2]int32{int32(from), int32(to)})
}

// NumVertices returns the number of vertices the builder was created with.
func (b *Builder) NumVertices() int { return b.n }

// Grow reserves room for m more edges, so a caller that knows its edge
// count up front pays one allocation instead of AddEdge's doublings.
func (b *Builder) Grow(m int) {
	b.edges = slices.Grow(b.edges, m)
}

// Build finalizes the builder into an immutable Graph in compressed
// sparse row (CSR) form, for both out- and in-adjacency. Duplicate edges
// and self-loops are discarded. Build leaves the builder's edges in
// (source, target) order, so building again skips the sort.
func (b *Builder) Build() *Graph {
	edges := b.edges
	if !inOrder(edges) {
		radixSort(edges, b.n)
	}
	g := &Graph{n: b.n, outOff: make([]int32, b.n+1)}
	// Edges in (source, target) order are the out-rows already: count
	// each row, then copy its targets. Equal edges sit side by side.
	kept := func(i int) bool {
		e := edges[i]
		return e[0] != e[1] && (i == 0 || edges[i-1] != e)
	}
	m := 0
	for i, e := range edges {
		if kept(i) {
			g.outOff[e[0]+1]++
			m++
		}
	}
	for v := 0; v < b.n; v++ {
		g.outOff[v+1] += g.outOff[v]
	}
	g.outAdj = make([]int32, 0, m)
	for i, e := range edges {
		if kept(i) {
			g.outAdj = append(g.outAdj, e[1])
		}
	}
	g.fillIn()
	return g
}

// FromRows builds the graph on n vertices whose out-row v is what
// appendRow(v, row) appends to row, sorted, with repeats and self-loops
// dropped, as Builder.Build would keep them. Rows are appended in
// vertex order to one column sized for sizeHint entries, so a caller
// that holds its rows already pays no edge-list sort.
func FromRows(n, sizeHint int, appendRow func(v int, row []int32) []int32) *Graph {
	g := &Graph{n: n, outOff: make([]int32, n+1)}
	adj := make([]int32, 0, sizeHint)
	for v := range n {
		start := len(adj)
		adj = appendRow(v, adj)
		row := adj[start:]
		slices.Sort(row)
		row = slices.Compact(row)
		if i, self := slices.BinarySearch(row, int32(v)); self {
			row = slices.Delete(row, i, i+1)
		}
		adj = adj[:start+len(row)]
		g.outOff[v+1] = int32(len(adj))
	}
	g.outAdj = adj
	if len(adj) < cap(adj) {
		g.outAdj = slices.Clone(adj) // give the hint's slack back
	}
	g.fillIn()
	return g
}

// inOrder reports whether edges ascend by (source, target); equal
// neighbours are allowed. A file that Save wrote is read in this order.
func inOrder(edges [][2]int32) bool {
	for i := 1; i < len(edges); i++ {
		p, e := edges[i-1], edges[i]
		if p[0] > e[0] || p[0] == e[0] && p[1] > e[1] {
			return false
		}
	}
	return true
}

// radixSort orders edges over n vertices by (source, target) without
// comparisons: a radix sort whose two digits are the vertex ids, least
// significant first. Each pass is a stable counting sort, so the pass by
// source keeps equal sources in target order — O(V+E) where a comparison
// sort of the edge list was most of the cost of building a network.
func radixSort(edges [][2]int32, n int) {
	tmp := make([][2]int32, len(edges))
	pos := make([]int32, n+1)
	countingPass(tmp, edges, 1, pos)
	countingPass(edges, tmp, 0, pos)
}

// countingPass stably sorts src into dst by endpoint key (0 = source,
// 1 = target). pos is scratch of length n+1 and is overwritten.
func countingPass(dst, src [][2]int32, key int, pos []int32) {
	clear(pos)
	for _, e := range src {
		pos[e[key]+1]++
	}
	for i := 1; i < len(pos); i++ {
		pos[i] += pos[i-1]
	}
	for _, e := range src {
		dst[pos[e[key]]] = e
		pos[e[key]]++
	}
}

// fillIn derives g's in-rows from its out-rows by one transpose scatter.
// Sources are visited in ascending order, so every in-row ascends too.
func (g *Graph) fillIn() {
	n := g.n
	g.inOff = make([]int32, n+1)
	g.inAdj = make([]int32, len(g.outAdj))
	// Each target is counted two slots up, so that after the prefix sum
	// inOff[v+1] is where v's row starts. The scatter then uses it as
	// v's cursor and leaves it where v's row ends, as CSR wants: no
	// cursor scratch.
	for _, v := range g.outAdj {
		if int(v)+2 <= n {
			g.inOff[v+2]++
		}
	}
	for v := 2; v <= n; v++ {
		g.inOff[v] += g.inOff[v-1]
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			g.inAdj[g.inOff[v+1]] = int32(u)
			g.inOff[v+1]++
		}
	}
}

// Graph is an immutable directed graph in CSR form. Construct one with a
// Builder, FromEdges or FromRows.
type Graph struct {
	n      int
	outOff []int32 // len n+1; outAdj[outOff[v]:outOff[v+1]] are v's successors
	outAdj []int32
	inOff  []int32 // len n+1; inAdj[inOff[v]:inOff[v+1]] are v's predecessors
	inAdj  []int32
}

// FromEdges builds a graph with n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// NumVertices returns the number of vertices in g.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of (deduplicated) directed edges in g.
func (g *Graph) NumEdges() int { return len(g.outAdj) }

// Out returns the successors of v. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) Out(v int) []int32 {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// In returns the predecessors of v. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) In(v int) []int32 {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v int) int {
	return int(g.outOff[v+1] - g.outOff[v])
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v int) int {
	return int(g.inOff[v+1] - g.inOff[v])
}

// Edges calls fn for every edge (u, v) of g, grouped by source vertex.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.Out(u) {
			fn(u, int(v))
		}
	}
}

// Reverse returns a new graph with every edge direction flipped. The
// reversed graph drives the construction of the reversed interval-based
// labeling used by 3DReach-Rev (paper §4.2).
func (g *Graph) Reverse() *Graph {
	r := &Graph{
		n:      g.n,
		outOff: g.inOff,
		outAdj: g.inAdj,
		inOff:  g.outOff,
		inAdj:  g.outAdj,
	}
	return r
}

// Roots returns the vertices with zero incoming edges, in increasing id
// order. These become the spanning-forest roots of Algorithm 1.
func (g *Graph) Roots() []int {
	var roots []int
	for v := 0; v < g.n; v++ {
		if g.InDegree(v) == 0 {
			roots = append(roots, v)
		}
	}
	return roots
}

// HasEdge reports whether the edge (u, v) exists. It runs in
// O(log outdeg(u)) using the sorted CSR layout.
func (g *Graph) HasEdge(u, v int) bool {
	adj := g.Out(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= int32(v) })
	return i < len(adj) && adj[i] == int32(v)
}

// MemoryBytes returns the approximate in-memory footprint of g's CSR
// arrays, used by the index-size accounting of Table 4.
func (g *Graph) MemoryBytes() int64 {
	return int64(4 * (len(g.outOff) + len(g.outAdj) + len(g.inOff) + len(g.inAdj)))
}
