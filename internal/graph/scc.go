package graph

// SCCs computes the strongly connected components of g using an iterative
// version of Tarjan's algorithm (recursion-free so that million-vertex
// social cores do not overflow the goroutine stack).
//
// The result assigns every vertex a component id in [0, count). Component
// ids are in reverse topological order of the condensation: if the
// condensation has an edge C1 -> C2 then id(C1) > id(C2). Callers that
// need a topological order of components can therefore iterate ids
// downwards.
func (g *Graph) SCCs() (comp []int32, count int) {
	const unvisited = -1
	n := g.n
	comp = make([]int32, n)
	index := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}

	var next int32
	stack := make([]int32, 0, 64)

	// Explicit DFS frames: vertex and position within its out-list.
	type frame struct {
		v   int32
		pos int32
	}
	frames := make([]frame, 0, 64)

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames, frame{v: int32(root)})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			adj := g.Out(int(f.v))
			advanced := false
			for int(f.pos) < len(adj) {
				u := adj[f.pos]
				f.pos++
				if index[u] == unvisited {
					index[u] = next
					lowlink[u] = next
					next++
					stack = append(stack, u)
					onStack[u] = true
					frames = append(frames, frame{v: u})
					advanced = true
					break
				}
				if onStack[u] && lowlink[f.v] > index[u] {
					lowlink[f.v] = index[u]
				}
			}
			if advanced {
				continue
			}
			// f.v is finished.
			v := f.v
			frames = frames[:len(frames)-1]
			if lowlink[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(count)
					if w == v {
						break
					}
				}
				count++
			}
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if lowlink[p] > lowlink[v] {
					lowlink[p] = lowlink[v]
				}
			}
		}
	}
	return comp, count
}

// Condensation holds the DAG obtained by collapsing every strongly
// connected component of a graph into a single super-vertex, together
// with the mapping between original vertices and components (paper §5).
type Condensation struct {
	// DAG is the condensed graph; vertex ids are component ids.
	DAG *Graph
	// Comp maps each original vertex to its component id.
	Comp []int32
	// Members lists the original vertices of every component.
	Members [][]int32
}

// Condense computes the SCC condensation of g.
func (g *Graph) Condense() *Condensation {
	comp, count := g.SCCs()
	members := make([][]int32, count)
	sizes := make([]int32, count)
	for _, c := range comp {
		sizes[c]++
	}
	for c := range members {
		members[c] = make([]int32, 0, sizes[c])
	}
	for v, c := range comp {
		members[c] = append(members[c], int32(v))
	}

	b := NewBuilder(count)
	b.Grow(g.NumEdges()) // an upper bound: edges inside a component are dropped
	g.Edges(func(u, v int) {
		cu, cv := comp[u], comp[v]
		if cu != cv {
			b.AddEdge(int(cu), int(cv))
		}
	})
	return &Condensation{DAG: b.Build(), Comp: comp, Members: members}
}

// LargestComponentSize returns the number of vertices in the biggest SCC.
func (c *Condensation) LargestComponentSize() int {
	max := 0
	for _, m := range c.Members {
		if len(m) > max {
			max = len(m)
		}
	}
	return max
}

// NumComponents returns the number of strongly connected components.
func (c *Condensation) NumComponents() int { return len(c.Members) }
