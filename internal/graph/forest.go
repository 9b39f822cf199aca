package graph

// ForestPolicy selects how the spanning forest of a DAG is grown.
// The paper's future work (§8) mentions studying the role of the spanning
// forest shape; the library exposes the two natural policies as an
// ablation knob (rrbench -exp ablation-forest).
type ForestPolicy int

const (
	// ForestDFS grows each spanning tree depth-first (the default; it
	// keeps subtree post-order ranges contiguous and tends to give long
	// chains, which compress well).
	ForestDFS ForestPolicy = iota
	// ForestBFS grows each spanning tree breadth-first (shallow trees).
	ForestBFS
)

// SpanningForest is a rooted spanning forest of a DAG, together with the
// post-order numbering Algorithm 1 assigns to its vertices.
//
// Post-order numbers are 1-based and dense: they form exactly the range
// [1, NumVertices], matching the paper's running example (Table 1).
type SpanningForest struct {
	// Parent[v] is v's parent in its spanning tree, or -1 for roots.
	Parent []int32
	// Post[v] is the post-order traversal number of v (1-based).
	Post []int32
	// MinPost[v] is the smallest post-order number in v's subtree. The
	// subtree of v covers exactly the contiguous post-order interval
	// [MinPost[v], Post[v]] — the tree label of Agrawal et al.
	MinPost []int32
	// Order lists the vertices by increasing post-order number, i.e.
	// Order[i] is the vertex with post-order number i+1.
	Order []int32
	// Roots lists the root of each spanning tree in visit order.
	Roots []int32
	// TreeEdge[e-index] is not stored; use IsTreeEdge.
	isTreeChild []bool // indexed like the CSR out-array of the source graph
	g           *Graph
}

// NewSpanningForest computes a spanning forest of the DAG g and the
// post-order numbering of its vertices (Algorithm 1, lines 1–4).
//
// Every vertex with zero in-degree becomes a root. Vertices that are not
// reachable from any zero-in-degree vertex cannot exist in a DAG, so the
// forest always spans all of g. NewSpanningForest panics if g has a cycle.
func NewSpanningForest(g *Graph, policy ForestPolicy) *SpanningForest {
	if !g.IsDAG() {
		panic("graph: NewSpanningForest requires a DAG; condense SCCs first")
	}
	n := g.NumVertices()
	f := &SpanningForest{
		Parent:      make([]int32, n),
		Post:        make([]int32, n),
		MinPost:     make([]int32, n),
		Order:       make([]int32, 0, n),
		isTreeChild: make([]bool, g.NumEdges()),
		g:           g,
	}
	for i := range f.Parent {
		f.Parent[i] = -1
	}
	visited := make([]bool, n)

	// First grow the trees (choosing tree edges), then post-order each.
	children := make([][]int32, n)
	grow := func(root int) {
		visited[root] = true
		if policy == ForestBFS {
			queue := []int32{int32(root)}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				base := g.outOff[v]
				for i, u := range g.Out(int(v)) {
					if !visited[u] {
						visited[u] = true
						f.Parent[u] = v
						f.isTreeChild[int(base)+i] = true
						children[v] = append(children[v], u)
						queue = append(queue, u)
					}
				}
			}
			return
		}
		// DFS, iterative.
		type frame struct {
			v   int32
			pos int32
		}
		frames := []frame{{v: int32(root)}}
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			adj := g.Out(int(fr.v))
			advanced := false
			for int(fr.pos) < len(adj) {
				u := adj[fr.pos]
				edgeIdx := int(g.outOff[fr.v]) + int(fr.pos)
				fr.pos++
				if !visited[u] {
					visited[u] = true
					f.Parent[u] = fr.v
					f.isTreeChild[edgeIdx] = true
					children[fr.v] = append(children[fr.v], u)
					frames = append(frames, frame{v: u})
					advanced = true
					break
				}
			}
			if !advanced {
				frames = frames[:len(frames)-1]
			}
		}
	}

	var roots []int32
	for v := 0; v < n; v++ {
		if g.InDegree(v) == 0 {
			roots = append(roots, int32(v))
		}
	}
	// A DAG with n > 0 vertices always has at least one zero-in-degree
	// vertex, and every vertex is reachable from the set of such vertices.
	for _, r := range roots {
		if !visited[r] {
			grow(int(r))
		}
	}
	f.Roots = roots

	// Post-order numbering, tree by tree (Algorithm 1, lines 2–4).
	next := int32(1)
	for _, r := range roots {
		next = f.postorder(int(r), children, next)
	}
	return f
}

// postorder assigns post-order numbers to the subtree rooted at root,
// starting from next; it returns the next unused number. Iterative.
func (f *SpanningForest) postorder(root int, children [][]int32, next int32) int32 {
	type frame struct {
		v   int32
		pos int32
	}
	frames := []frame{{v: int32(root)}}
	for len(frames) > 0 {
		fr := &frames[len(frames)-1]
		kids := children[fr.v]
		if int(fr.pos) < len(kids) {
			u := kids[fr.pos]
			fr.pos++
			frames = append(frames, frame{v: u})
			continue
		}
		// All children numbered; number fr.v.
		v := fr.v
		frames = frames[:len(frames)-1]
		f.Post[v] = next
		min := next
		for _, u := range kids {
			if f.MinPost[u] < min {
				min = f.MinPost[u]
			}
		}
		f.MinPost[v] = min
		f.Order = append(f.Order, v)
		next++
	}
	return next
}

// ForestFromParents builds a SpanningForest from an explicit parent
// assignment: parent[v] is v's tree parent or -1 for roots. Children are
// visited in increasing vertex-id order during the post-order numbering;
// roots are numbered in the order given. The assignment must form a
// forest over exactly the vertices of g whose tree edges exist in g, or
// ForestFromParents panics. Tests use this to reproduce the paper's
// hand-picked example forest (Figure 3).
func ForestFromParents(g *Graph, parent []int32, roots []int32) *SpanningForest {
	n := g.NumVertices()
	if len(parent) != n {
		panic("graph: ForestFromParents: parent length mismatch")
	}
	f := &SpanningForest{
		Parent:      append([]int32(nil), parent...),
		Post:        make([]int32, n),
		MinPost:     make([]int32, n),
		Order:       make([]int32, 0, n),
		Roots:       append([]int32(nil), roots...),
		isTreeChild: make([]bool, g.NumEdges()),
		g:           g,
	}
	children := make([][]int32, n)
	rootCount := 0
	for v := 0; v < n; v++ {
		p := parent[v]
		if p < 0 {
			rootCount++
			continue
		}
		if !g.HasEdge(int(p), v) {
			panic("graph: ForestFromParents: tree edge missing from graph")
		}
		children[p] = append(children[p], int32(v)) // ids arrive in order
		for i, u := range g.Out(int(p)) {
			if int(u) == v {
				f.isTreeChild[int(g.outOff[p])+i] = true
			}
		}
	}
	if rootCount != len(roots) {
		panic("graph: ForestFromParents: root count mismatch")
	}
	next := int32(1)
	for _, r := range roots {
		if parent[r] >= 0 {
			panic("graph: ForestFromParents: listed root has a parent")
		}
		next = f.postorder(int(r), children, next)
	}
	if int(next) != n+1 {
		panic("graph: ForestFromParents: parent assignment does not span the graph")
	}
	return f
}

// IsTreeEdge reports whether the i-th outgoing edge of u (in the order
// returned by Graph.Out) is a spanning-tree edge.
func (f *SpanningForest) IsTreeEdge(u, i int) bool {
	return f.isTreeChild[int(f.g.outOff[u])+i]
}

// NonTreeEdges returns all edges of the underlying graph that are not part
// of the spanning forest, i.e. the set E_NF of Algorithm 1 (line 19).
func (f *SpanningForest) NonTreeEdges() [][2]int32 {
	var edges [][2]int32
	g := f.g
	for u := 0; u < g.NumVertices(); u++ {
		for i, v := range g.Out(u) {
			if !f.IsTreeEdge(u, i) {
				edges = append(edges, [2]int32{int32(u), v})
			}
		}
	}
	return edges
}
