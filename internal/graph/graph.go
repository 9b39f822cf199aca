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
// and self-loops are discarded.
func (b *Builder) Build() *Graph {
	edges := b.edges
	// Order by (source, target) without comparisons: a radix sort whose
	// two digits are the vertex ids, least significant first. Each pass
	// is a stable counting sort, so the pass by source keeps equal
	// sources in target order — O(V+E) where a comparison sort of the
	// edge list was most of the cost of building a network.
	tmp := make([][2]int32, len(edges))
	pos := make([]int32, b.n+1)
	countingPass(tmp, edges, 1, pos)
	countingPass(edges, tmp, 0, pos)
	// Deduplicate and drop self-loops in place.
	w := 0
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		if w > 0 && edges[w-1] == e {
			continue
		}
		edges[w] = e
		w++
	}
	edges = edges[:w]

	g := &Graph{
		n:      b.n,
		outOff: make([]int32, b.n+1),
		outAdj: make([]int32, len(edges)),
		inOff:  make([]int32, b.n+1),
		inAdj:  make([]int32, len(edges)),
	}
	for _, e := range edges {
		g.outOff[e[0]+1]++
		g.inOff[e[1]+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	// The edges are grouped by source already, so the out-adjacency is
	// their targets in order; the in-adjacency scatters each source to
	// its target's row, which leaves every row ascending too.
	inPos := pos[:b.n]
	copy(inPos, g.inOff)
	for i, e := range edges {
		g.outAdj[i] = e[1]
		g.inAdj[inPos[e[1]]] = e[0]
		inPos[e[1]]++
	}
	return g
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

// Graph is an immutable directed graph in CSR form. Construct one with a
// Builder or FromEdges.
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
