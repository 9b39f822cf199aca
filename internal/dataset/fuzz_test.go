package dataset

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geom"
)

// FuzzLoad hardens the network parser: arbitrary input must either be
// rejected with an error or produce a structurally valid network that
// Save writes and Load reads back exactly: name, check-ins, spatial
// flags, points and extents bit for bit, and every out-row. The seeds
// reach both of Build's paths: edges in (source, target) order, as Save
// writes them, and edges out of order, repeated or looping.
func FuzzLoad(f *testing.F) {
	f.Add("geosocial 1\nvertices 3\np 2 1.5 2.5\ne 0 1\ne 1 2\n")
	f.Add("geosocial 1\nname x\nvertices 2\ng 1 0 0 4 4\ne 0 1\n")
	f.Add("geosocial 1\nvertices 0\n")
	f.Add("# comment\n\ngeosocial 1\nvertices 1\np 0 -1e300 1e300\n")
	f.Add("geosocial 2\n")
	f.Add("geosocial 1\nvertices -1\n")
	f.Add("geosocial 1\nvertices 9223372036854775807\n")
	f.Add("geosocial 1\nvertices 2\ne 0 9\n")
	// Sorted, unsorted, duplicate and self-loop edges.
	f.Add("geosocial 1\nvertices 4\ncheckins 2\np 3 1 2\ne 0 1\ne 0 3\ne 1 2\ne 2 0\ne 2 3\n")
	f.Add("geosocial 1\nvertices 4\ne 2 3\ne 0 3\ne 1 2\ne 0 1\ne 2 0\n")
	f.Add("geosocial 1\nvertices 4\ne 0 1\ne 0 1\ne 1 2\ne 1 2\ne 2 0\ne 0 1\n")
	f.Add("geosocial 1\nvertices 3\ne 0 0\ne 0 1\ne 1 1\ne 1 2\ne 2 2\ne 2 0\n")
	// A point after an extent for the same vertex, and the reverse.
	f.Add("geosocial 1\nvertices 2\ng 1 0 0 4 4\np 1 9 9\ng 0 -0 1 2 3\np 0 5 5\ng 0 1 1 2 2\n")

	f.Fuzz(func(t *testing.T, input string) {
		if n := claimsVertices(input); n > maxFuzzVertices && n <= math.MaxInt32-1 {
			return // Load would accept it, and its per-vertex columns would fill the memory
		}
		net, err := Load(strings.NewReader(input))
		if err != nil {
			return
		}
		if verr := net.Validate(); verr != nil {
			t.Fatalf("Load accepted structurally invalid network: %v", verr)
		}
		var buf bytes.Buffer
		if err := Save(&buf, net); err != nil {
			t.Fatalf("Save of loaded network failed: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if err := sameNetwork(net, again); err != "" {
			t.Fatalf("round trip changed the network: %s", err)
		}
	})
}

// maxFuzzVertices bounds the vertex count FuzzLoad loads. Load accepts
// up to math.MaxInt32-1 and allocates its columns up front, which a
// short input can ask for in gigabytes. Counts Load refuses, negative or
// larger than that, still go through it.
const maxFuzzVertices = 1 << 16

// claimsVertices returns the count the first `vertices` line of input
// names, the only one Load can accept, or 0.
func claimsVertices(input string) int {
	for _, line := range strings.Split(input, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "vertices" {
			n, _ := strconv.Atoi(f[1])
			return n
		}
	}
	return 0
}

// sameNetwork describes the first difference between a and b, or
// returns "". Floats are compared bit for bit, and an extent equal to
// the zero rectangle counts as none, as GeometryOf and Save treat it.
func sameNetwork(a, b *Network) string {
	switch {
	case a.Name != b.Name:
		return "name " + a.Name + " became " + b.Name
	case a.Checkins != b.Checkins:
		return "check-ins changed"
	case a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges():
		return "vertex or edge count changed"
	case !slices.Equal(a.Spatial, b.Spatial):
		return "spatial flags changed"
	}
	extent := func(n *Network, v int) geom.Rect {
		if n.Extents == nil || n.Extents[v] == (geom.Rect{}) {
			return geom.Rect{}
		}
		return n.Extents[v]
	}
	same := func(x, y []float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for v := 0; v < a.NumVertices(); v++ {
		pa, pb := a.Points[v], b.Points[v]
		if !same([]float64{pa.X, pa.Y}, []float64{pb.X, pb.Y}) {
			return "a point changed"
		}
		ea, eb := extent(a, v), extent(b, v)
		if !same([]float64{ea.Min.X, ea.Min.Y, ea.Max.X, ea.Max.Y}, []float64{eb.Min.X, eb.Min.Y, eb.Max.X, eb.Max.Y}) {
			return "an extent changed"
		}
		if !slices.Equal(a.Graph.Out(v), b.Graph.Out(v)) {
			return "an out-row changed"
		}
	}
	return ""
}
