package bfl

import (
	"fmt"

	"repro/internal/graph"
)

// Flat form: the five label columns exposed raw so the flat index
// format can persist them as aligned sections and overlay them back
// without copying.

// Flat returns the label columns and filter width. The slices alias the
// index's storage and must not be mutated.
func (idx *Index) Flat() (words int, hash []int32, out, in []uint64, discover, finish []int32) {
	return idx.words, idx.hash, idx.out, idx.in, idx.discover, idx.finish
}

// maxWords caps the filter width a file may claim.
const maxWords = 1024

// FromFlat assembles an index from persisted columns and attaches it to
// g. It is the one place outside input is checked, whichever codec
// decoded it: the vertex count must match the graph and every column
// must have its exact expected length. The slices are adopted, not
// copied — a mapped load allocates only the Index header. Label
// *values* need no validation: hashes are only used at build time, and
// discover/finish/filters are only compared, so corrupt values degrade
// answers on a mismatched graph but cannot panic (and the flat loader
// only pairs columns with the graph they were saved with).
func FromFlat(g *graph.Graph, words int, hash []int32, out, in []uint64, discover, finish []int32) (*Index, error) {
	n := g.NumVertices()
	if words <= 0 || words > maxWords {
		return nil, fmt.Errorf("bfl: implausible filter width %d words", words)
	}
	if len(hash) != n {
		return nil, fmt.Errorf("bfl: %d hashes for %d vertices", len(hash), n)
	}
	if len(out) != n*words || len(in) != n*words {
		return nil, fmt.Errorf("bfl: filter lengths %d/%d, want %d", len(out), len(in), n*words)
	}
	if len(discover) != n || len(finish) != n {
		return nil, fmt.Errorf("bfl: interval lengths %d/%d for %d vertices", len(discover), len(finish), n)
	}
	return &Index{
		g:        g,
		words:    words,
		hash:     hash,
		out:      out,
		in:       in,
		discover: discover,
		finish:   finish,
	}, nil
}
