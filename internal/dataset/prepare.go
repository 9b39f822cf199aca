package dataset

import (
	"repro/internal/geom"
	"repro/internal/graph"
)

// SCCPolicy selects how the spatial extent of a strongly connected
// component is modeled after condensation (paper §5).
type SCCPolicy int

const (
	// Replicate replaces every super-vertex by the spatial vertices it
	// contains: each member point is indexed individually and inherits
	// the super-vertex's reachability labels. This is the paper's
	// non-MBR variant, the winner of Figure 5.
	Replicate SCCPolicy = iota
	// MBR gives every super-vertex a single geometry: the minimum
	// bounding rectangle of its members' points.
	MBR
)

// String implements fmt.Stringer.
func (p SCCPolicy) String() string {
	if p == MBR {
		return "mbr"
	}
	return "replicate"
}

// Prepared is a network after SCC condensation: the DAG every
// reachability index is built on, plus the spatial information of every
// component under both policies. All RangeReach engines consume a
// Prepared network.
type Prepared struct {
	// Net is the original network.
	Net *Network
	// DAG is the condensation of Net.Graph. Vertex ids are component ids.
	DAG *graph.Graph
	// Comp maps original vertices to component ids.
	Comp []int32
	// memberOff, spatialEnd and members list every component's original
	// vertices in one column: component c's run is
	// members[memberOff[c]:memberOff[c+1]], its spatial members first and
	// ending at spatialEnd[c], each part ascending (see Members and
	// SpatialMembers).
	memberOff, spatialEnd, members []int32
	// CompMBR is the MBR of each component's member points; the empty
	// rectangle for components without spatial members.
	CompMBR []geom.Rect
	// HasSpatial reports whether a component contains a spatial vertex.
	HasSpatial []bool
}

// Prepare condenses the network's strongly connected components and
// derives the per-component spatial information (paper §5). Networks
// that are already DAGs condense to themselves with singleton
// components. It takes the condensation's member column over and moves
// each run's spatial members to its front, so it allocates nothing per
// component.
func Prepare(net *Network) *Prepared {
	cond := net.Graph.Condense()
	nc := cond.NumComponents()
	off, members := cond.MemberColumns()
	p := &Prepared{
		Net:        net,
		DAG:        cond.DAG,
		Comp:       cond.Comp,
		memberOff:  off,
		spatialEnd: make([]int32, nc),
		members:    members,
		CompMBR:    make([]geom.Rect, nc),
		HasSpatial: make([]bool, nc),
	}
	// A stable partition of each run: spatial members move forward in
	// place, the others wait in rest and follow them.
	rest := make([]int32, 0, cond.LargestComponentSize())
	for c := range nc {
		mbr := geom.EmptyRect()
		end := off[c]
		rest = rest[:0]
		for _, v := range members[off[c]:off[c+1]] {
			if !net.Spatial[v] {
				rest = append(rest, v)
				continue
			}
			members[end] = v
			end++
			mbr = mbr.Union(net.GeometryOf(int(v)))
		}
		copy(members[end:off[c+1]], rest)
		p.spatialEnd[c] = end
		p.CompMBR[c] = mbr
		p.HasSpatial[c] = end > off[c]
	}
	return p
}

// Members returns the original vertices of component c, its spatial
// members first, and SpatialMembers those alone, ascending (the
// Replicate policy's point sources). Both alias the member column and
// must not be modified; a slice's capacity is its length, so appending
// to it copies.
func (p *Prepared) Members(c int) []int32 {
	lo, hi := p.memberOff[c], p.memberOff[c+1]
	return p.members[lo:hi:hi]
}

// SpatialMembers returns the spatial members of component c; see Members.
func (p *Prepared) SpatialMembers(c int) []int32 {
	lo, hi := p.memberOff[c], p.spatialEnd[c]
	return p.members[lo:hi:hi]
}

// CompOf returns the component id of the original vertex v.
func (p *Prepared) CompOf(v int) int32 { return p.Comp[v] }

// NumComponents returns the number of components (DAG vertices).
func (p *Prepared) NumComponents() int { return len(p.spatialEnd) }

// GeometryOf returns the spatial geometry of the original vertex v.
func (p *Prepared) GeometryOf(v int32) geom.Rect { return p.Net.GeometryOf(int(v)) }

// Witness reports whether the original spatial vertex v's geometry makes
// the region r positive: point containment for point vertices, rectangle
// intersection for extended geometries (paper footnote 1).
func (p *Prepared) Witness(v int32, r geom.Rect) bool {
	if p.Net.Extents != nil {
		if e := p.Net.Extents[v]; e != (geom.Rect{}) {
			return r.Intersects(e)
		}
	}
	return r.ContainsPoint(p.Net.Points[v])
}
