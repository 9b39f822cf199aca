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

// Engine persistence: SaveEngine (persistv2.go) serializes the index
// state of a 3DReach (interval labels and the tiles over them) or a
// GeoReach (the SPA-Graph) as a v2 flat image; LoadEngine reads it back
// over the same prepared network. The other engines are
// rebuilt from the network wherever they are used, so they have no
// file.
//
// The loader reads the layout the writer writes plus the one generation
// before it (DESIGN.md §16); anything older, and a record of a method
// that no longer saves, is refused with ErrRetiredFormat.

// ErrNotPersistable reports an engine type without a save format: any
// but 3DReach and GeoReach.
var ErrNotPersistable = fmt.Errorf("core: engine is not persistable")

// ErrRetiredFormat reports an index file in a layout the loader no
// longer reads: the v1 stream, a v2 3DReach without tiles or boxes, a
// v2 3DReach or 3DReach-Rev record under the MBR policy, or a v2 record
// of a method that no longer saves (3DReach-Rev, SocReach, SpaReach,
// Auto). The error wrapping it names what was found and how to replace
// the file.
var ErrRetiredFormat = errors.New("retired index format")

// upgradeRemedy replaces a file whose layout an older build still
// reads and re-saves as the current one. That re-save is a current
// file only for the methods that still save.
const upgradeRemedy = "for a 3DReach or GeoReach file, `rrquery -load-index old.idx -save-index new.idx` built at commit b588fdf upgrades it; any other method is rebuilt from the network"

// v1Magic opens a v1 stream, the format every Save wrote before the flat
// image; only recognised, to refuse it by name.
var v1Magic = []byte("RRIX")

// retired wraps ErrRetiredFormat with what the loader found and the
// remedy for it.
func retired(found, remedy string) error {
	return fmt.Errorf("core: %s: %w; %s", found, ErrRetiredFormat, remedy)
}

// LoadEngine reads an engine written by SaveEngine and attaches it to
// prep, which must describe the same network the engine was built over.
// The image decodes into one aligned buffer whose typed columns the
// engine overlays; see OpenMappedEngine for the zero-copy path. A v1
// stream is refused with ErrRetiredFormat.
func LoadEngine(r io.Reader, prep *dataset.Prepared) (BuildResult, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(len(v1Magic)); err == nil && bytes.Equal(head, v1Magic) {
		return BuildResult{}, retired("v1 stream", upgradeRemedy)
	}
	img, err := flatbuf.ReadImage(br)
	if err != nil {
		return BuildResult{}, err
	}
	return loadEngineV2(img, prep)
}
