package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/flatbuf"
)

// Engine persistence: SaveEngine (persistv2.go) serializes the expensive
// index state of an engine (interval labels, BFL filters or the
// SPA-Graph, and the R-tree or tiles over them) as a v2 flat image;
// LoadEngine reads it back over the same prepared network. The PLL
// variant is not persisted: its build is fast relative to loading its
// state.
//
// The loader reads the layout the writer writes plus the one generation
// before it (DESIGN.md §16); anything older is refused with
// ErrRetiredFormat.

// ErrNotPersistable reports an engine type without a save format.
var ErrNotPersistable = fmt.Errorf("core: engine is not persistable")

// ErrRetiredFormat reports an index file in a layout the loader no
// longer reads: the v1 stream, or a v2 3DReach without tiles or boxes.
// The error wrapping it names what was found.
var ErrRetiredFormat = errors.New("retired index format: `rrquery -load-index old.idx -save-index new.idx` built at commit b588fdf upgrades the file")

// v1Magic opens a v1 stream, the format every Save wrote before the flat
// image; only recognised, to refuse it by name.
var v1Magic = []byte("RRIX")

// retired wraps ErrRetiredFormat with what the loader found.
func retired(found string) error {
	return fmt.Errorf("core: %s: %w", found, ErrRetiredFormat)
}

// LoadEngine reads an engine written by SaveEngine and attaches it to
// prep, which must describe the same network the engine was built over.
// The options supply the spatial-side knobs; the persisted reachability
// state is used as-is. The image decodes into one aligned buffer whose
// typed columns the engine overlays; see OpenMappedEngine for the
// zero-copy path. A v1 stream is refused with ErrRetiredFormat.
func LoadEngine(r io.Reader, prep *dataset.Prepared, opts BuildOptions) (BuildResult, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(len(v1Magic)); err == nil && bytes.Equal(head, v1Magic) {
		return BuildResult{}, retired("v1 stream")
	}
	img, err := flatbuf.ReadImage(br)
	if err != nil {
		return BuildResult{}, err
	}
	return loadEngineV2(img, prep, opts)
}
