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
	// memberOff and members list the original vertices of every
	// component, ascending: component c's are
	// members[memberOff[c]:memberOff[c+1]] (see Members).
	memberOff []int32
	members   []int32
}

// Condense computes the SCC condensation of g.
func (g *Graph) Condense() *Condensation {
	comp, count := g.SCCs()
	// Members are scattered by component, as fillIn scatters in-rows:
	// each vertex is counted two slots up, so that memberOff[c+1] is the
	// cursor of c's run during the scatter and its end after it.
	off := make([]int32, count+1)
	for _, c := range comp {
		if int(c)+2 <= count {
			off[c+2]++
		}
	}
	for c := 2; c <= count; c++ {
		off[c] += off[c-1]
	}
	members := make([]int32, len(comp))
	for v, c := range comp {
		members[off[c+1]] = int32(v)
		off[c+1]++
	}
	cond := &Condensation{Comp: comp, memberOff: off, members: members}

	// Each component's DAG row is its members' successors mapped to
	// components; a stamp drops the component itself and repeats before
	// FromRows sorts the row. g's edge count bounds the rows' total.
	stamp := make([]int32, count) // stamp[d] == c+1: d is in row c already
	cond.DAG = FromRows(count, g.NumEdges(), func(c int, row []int32) []int32 {
		mark := int32(c) + 1
		for _, v := range cond.Members(c) {
			for _, w := range g.Out(int(v)) {
				if d := comp[w]; d != int32(c) && stamp[d] != mark {
					stamp[d] = mark
					row = append(row, d)
				}
			}
		}
		return row
	})
	return cond
}

// Members returns the original vertices of component c in ascending
// order. The slice aliases the condensation's member column and must
// not be modified; its capacity is its length, so appending to it
// copies.
func (c *Condensation) Members(comp int) []int32 {
	lo, hi := c.memberOff[comp], c.memberOff[comp+1]
	return c.members[lo:hi:hi]
}

// MemberColumns returns the member column and its offsets (see
// Members) themselves, not copies, for a caller that takes the
// condensation over.
func (c *Condensation) MemberColumns() (off, members []int32) {
	return c.memberOff, c.members
}

// LargestComponentSize returns the number of vertices in the biggest SCC.
func (c *Condensation) LargestComponentSize() int {
	largest := int32(0)
	for i := range c.NumComponents() {
		largest = max(largest, c.memberOff[i+1]-c.memberOff[i])
	}
	return int(largest)
}

// NumComponents returns the number of strongly connected components.
func (c *Condensation) NumComponents() int { return len(c.memberOff) - 1 }
