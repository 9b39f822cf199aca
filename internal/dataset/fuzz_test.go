package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoad hardens the network parser: arbitrary input must either be
// rejected with an error or produce a structurally valid network that
// round-trips through Save.
func FuzzLoad(f *testing.F) {
	f.Add("geosocial 1\nvertices 3\np 2 1.5 2.5\ne 0 1\ne 1 2\n")
	f.Add("geosocial 1\nname x\nvertices 2\ng 1 0 0 4 4\ne 0 1\n")
	f.Add("geosocial 1\nvertices 0\n")
	f.Add("# comment\n\ngeosocial 1\nvertices 1\np 0 -1e300 1e300\n")
	f.Add("geosocial 2\n")
	f.Add("geosocial 1\nvertices -1\n")
	f.Add("geosocial 1\nvertices 9223372036854775807\n")
	f.Add("geosocial 1\nvertices 2\ne 0 9\n")

	f.Fuzz(func(t *testing.T, input string) {
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
		if again.NumVertices() != net.NumVertices() || again.NumEdges() != net.NumEdges() ||
			again.NumSpatial() != net.NumSpatial() {
			t.Fatal("round trip changed the network")
		}
	})
}
