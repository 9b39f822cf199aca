// Package rangereach is a library for fast geosocial reachability
// queries, reproducing "Fast Geosocial Reachability Queries" (Bouros,
// Chondrogiannis, Kowalski; EDBT 2025).
//
// A geosocial network is a directed graph whose vertices may carry a
// point in the plane (venues); the RangeReach(G, v, R) query asks
// whether vertex v can reach — through any directed path — some spatial
// vertex whose point lies inside the rectangular region R.
//
// The library implements the paper's two novel methods, 3DReach and
// SocReach, its strongest baseline configuration SpaReach-BFL, the
// interval-labeled spatial-first variant SpaReach-INT, the line-based
// 3DReach-Rev, and the prior state of the art GeoReach — all behind one
// Index interface:
//
//	net, _ := rangereach.LoadNetwork("checkins.gsn")
//	idx, _ := net.Build(rangereach.ThreeDReach)
//	ok := idx.RangeReach(42, rangereach.NewRect(13.3, 52.4, 13.5, 52.6))
//
// Arbitrary (cyclic) networks are handled transparently: strongly
// connected components are condensed and their spatial extent modeled
// under the Replicate policy by default (paper §5).
package rangereach

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// Rect is an axis-aligned query region, boundary inclusive.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect builds a region from two corner points in any order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	r := geom.NewRect(x1, y1, x2, y2)
	return Rect{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}
}

func (r Rect) internal() geom.Rect {
	return geom.Rect{Min: geom.Pt(r.MinX, r.MinY), Max: geom.Pt(r.MaxX, r.MaxY)}
}

// Network is an immutable geosocial network ready for index construction.
type Network struct {
	net  *dataset.Network
	prep *dataset.Prepared
}

// NetworkBuilder assembles a geosocial network vertex by vertex.
type NetworkBuilder struct {
	gb      *graph.Builder
	spatial []bool
	points  []geom.Point
	extents []geom.Rect
	name    string
	err     error
}

// NewNetworkBuilder starts a network over n vertices, identified by the
// dense ids 0..n-1.
func NewNetworkBuilder(n int) *NetworkBuilder {
	if n < 0 {
		return &NetworkBuilder{err: fmt.Errorf("rangereach: negative vertex count %d", n)}
	}
	return &NetworkBuilder{
		gb:      graph.NewBuilder(n),
		spatial: make([]bool, n),
		points:  make([]geom.Point, n),
	}
}

// SetName labels the network in reports.
func (b *NetworkBuilder) SetName(name string) *NetworkBuilder {
	b.name = name
	return b
}

// AddEdge records the directed edge (from, to) — a follows/checks-in
// relationship. Out-of-range endpoints surface as an error from Build.
func (b *NetworkBuilder) AddEdge(from, to int) *NetworkBuilder {
	if b.err != nil {
		return b
	}
	if from < 0 || from >= len(b.spatial) || to < 0 || to >= len(b.spatial) {
		b.err = fmt.Errorf("rangereach: edge (%d,%d) out of range [0,%d)", from, to, len(b.spatial))
		return b
	}
	b.gb.AddEdge(from, to)
	return b
}

// SetPoint marks v as a spatial vertex located at (x, y). A NaN or
// infinite coordinate surfaces as an error from Build.
func (b *NetworkBuilder) SetPoint(v int, x, y float64) *NetworkBuilder {
	if b.err != nil {
		return b
	}
	if v < 0 || v >= len(b.spatial) {
		b.err = fmt.Errorf("rangereach: vertex %d out of range [0,%d)", v, len(b.spatial))
		return b
	}
	if !geom.RectFromPoint(geom.Pt(x, y)).Finite() {
		b.err = fmt.Errorf("rangereach: vertex %d has non-finite location (%v, %v)", v, x, y)
		return b
	}
	b.spatial[v] = true
	b.points[v] = geom.Pt(x, y)
	return b
}

// SetRect marks v as a spatial vertex with a rectangular extent — the
// paper's footnote 1 generalization to arbitrary geometries. An extended
// vertex witnesses a query when its rectangle intersects the region. An
// inverted rectangle or a NaN or infinite coordinate surfaces as an
// error from Build.
func (b *NetworkBuilder) SetRect(v int, r Rect) *NetworkBuilder {
	if b.err != nil {
		return b
	}
	if v < 0 || v >= len(b.spatial) {
		b.err = fmt.Errorf("rangereach: vertex %d out of range [0,%d)", v, len(b.spatial))
		return b
	}
	rect := r.internal()
	if !rect.Valid() || !rect.Finite() {
		b.err = fmt.Errorf("rangereach: vertex %d has invalid extent %+v", v, r)
		return b
	}
	if b.extents == nil {
		b.extents = make([]geom.Rect, len(b.spatial))
	}
	b.spatial[v] = true
	b.points[v] = rect.Center()
	b.extents[v] = rect
	return b
}

// Build finalizes the network, condensing strongly connected components.
func (b *NetworkBuilder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	net := &dataset.Network{
		Name:    b.name,
		Graph:   b.gb.Build(),
		Spatial: b.spatial,
		Points:  b.points,
		Extents: b.extents,
	}
	return wrap(net), nil
}

func wrap(net *dataset.Network) *Network {
	return &Network{net: net, prep: dataset.Prepare(net)}
}

// LoadNetwork reads a network from a file in the geosocial text format
// (see the dataset documentation and the rrgen tool).
func LoadNetwork(path string) (*Network, error) {
	net, err := dataset.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return wrap(net), nil
}

// ReadNetwork reads a network in the geosocial text format from r.
func ReadNetwork(r io.Reader) (*Network, error) {
	net, err := dataset.Load(r)
	if err != nil {
		return nil, err
	}
	return wrap(net), nil
}

// Save writes the network in the geosocial text format.
func (n *Network) Save(w io.Writer) error { return dataset.Save(w, n.net) }

// NumVertices returns |V|.
func (n *Network) NumVertices() int { return n.net.NumVertices() }

// NumEdges returns |E| (deduplicated directed edges).
func (n *Network) NumEdges() int { return n.net.NumEdges() }

// NumSpatial returns |P|, the number of spatial vertices.
func (n *Network) NumSpatial() int { return n.net.NumSpatial() }

// Name returns the network's label.
func (n *Network) Name() string { return n.net.Name }

// IsSpatial reports whether v carries a point.
func (n *Network) IsSpatial(v int) bool { return n.net.Spatial[v] }

// PointOf returns the coordinates of the spatial vertex v; ok is false
// for social vertices.
func (n *Network) PointOf(v int) (x, y float64, ok bool) {
	if !n.net.Spatial[v] {
		return 0, 0, false
	}
	p := n.net.Points[v]
	return p.X, p.Y, true
}

// OutDegree returns the number of outgoing edges of v.
func (n *Network) OutDegree(v int) int { return n.net.Graph.OutDegree(v) }

// Space returns the bounding rectangle of all spatial vertices.
func (n *Network) Space() Rect {
	s := n.net.Space()
	return Rect{s.Min.X, s.Min.Y, s.Max.X, s.Max.Y}
}

// Stats summarizes the network the way the paper's Table 3 does.
type Stats struct {
	Name       string
	Users      int // social vertices
	Venues     int // spatial vertices
	Checkins   int
	Vertices   int
	Edges      int
	SCCs       int
	LargestSCC int
}

// Stats computes the Table 3 row for the network.
func (n *Network) Stats() Stats {
	s := n.net.ComputeStats()
	return Stats{
		Name:       s.Name,
		Users:      s.Users,
		Venues:     s.Venues,
		Checkins:   s.Checkins,
		Vertices:   s.Vertices,
		Edges:      s.Edges,
		SCCs:       s.SCCs,
		LargestSCC: s.LargestSCC,
	}
}
