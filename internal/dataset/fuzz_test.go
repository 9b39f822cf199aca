package dataset

import (
	"bytes"
	"math"
	"runtime"
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
// writes them, and edges out of order, repeated or looping. Inputs load
// under a ceiling of fuzzCeiling vertices, so that a short input
// declaring millions goes through the refusal instead of filling the
// memory. Whatever the outcome, the bytes a load allocates stay within
// allocBound: linear in the input, plus linear in the vertices it
// builds, or, for a refused input, in the vertices its lines name — a
// count declared by a line it never gets past costs nothing.
func FuzzLoad(f *testing.F) {
	f.Add("geosocial 1\nvertices 3\np 2 1.5 2.5\ne 0 1\ne 1 2\n")
	f.Add("geosocial 1\nname x\nvertices 2\ng 1 0 0 4 4\ne 0 1\n")
	f.Add("geosocial 1\nvertices 0\n")
	f.Add("# comment\n\ngeosocial 1\nvertices 1\np 0 -1e300 1e300\n")
	f.Add("geosocial 2\n")
	f.Add("geosocial 1\nvertices -1\n")
	f.Add("geosocial 1\nvertices 9223372036854775807\n")
	f.Add("geosocial 1\nvertices 65536\n")
	f.Add("geosocial 1\nvertices 65537\np 65536 1 1\n")
	f.Add("geosocial 1\nvertices 65536\np 3 1 1\nbogus\n")
	f.Add("geosocial 1\nvertices 2\ne 0 9\n")
	// Sorted, unsorted, duplicate and self-loop edges.
	f.Add("geosocial 1\nvertices 4\ncheckins 2\np 3 1 2\ne 0 1\ne 0 3\ne 1 2\ne 2 0\ne 2 3\n")
	f.Add("geosocial 1\nvertices 4\ne 2 3\ne 0 3\ne 1 2\ne 0 1\ne 2 0\n")
	f.Add("geosocial 1\nvertices 4\ne 0 1\ne 0 1\ne 1 2\ne 1 2\ne 2 0\ne 0 1\n")
	f.Add("geosocial 1\nvertices 3\ne 0 0\ne 0 1\ne 1 1\ne 1 2\ne 2 2\ne 2 0\n")
	// A point after an extent for the same vertex, and the reverse.
	f.Add("geosocial 1\nvertices 2\ng 1 0 0 4 4\np 1 9 9\ng 0 -0 1 2 3\np 0 5 5\ng 0 1 1 2 2\n")

	f.Fuzz(func(t *testing.T, input string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net, err := load(strings.NewReader(input), fuzzCeiling)
		runtime.ReadMemStats(&after)
		n := namedVertices(input)
		if err == nil {
			n = net.NumVertices()
		}
		if got, bound := after.TotalAlloc-before.TotalAlloc, allocBound(len(input), min(n, fuzzCeiling)); got > bound {
			t.Fatalf("loading %d bytes over %d vertices allocated %d bytes, more than %d", len(input), n, got, bound)
		}
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
		again, err := load(&buf, fuzzCeiling)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if err := sameNetwork(net, again); err != "" {
			t.Fatalf("round trip changed the network: %s", err)
		}
	})
}

// fuzzCeiling is the vertex-count ceiling FuzzLoad loads under.
const fuzzCeiling = 1 << 16

// allocBound is the most a load of size input bytes building, or
// naming, n vertices may allocate: per input byte, the line copies and
// the edge list as it grows and sorts; per vertex, the flag, point and
// extent columns as they grow by doubling and the graph's offsets; and
// a constant for the scanner's buffer and the columns' first 4,096 rows,
// the least they grow by.
func allocBound(size, n int) uint64 {
	return uint64(64*size + 128*n + 1<<19)
}

// namedVertices is 1 plus the largest id a p or g line of input names
// (0 if none): the most vertices a refused load may have paid for.
func namedVertices(input string) int {
	n := 0
	for _, line := range strings.Split(input, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && (f[0] == "p" || f[0] == "g") {
			if id, err := strconv.Atoi(f[1]); err == nil && id >= n {
				n = id + 1
			}
		}
	}
	return n
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
