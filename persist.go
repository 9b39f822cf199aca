package rangereach

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// ErrNotPersistable reports that an index's method has no save format
// (Method.Persistable says which have one): 3DReach, the engine that is
// served from a file, and GeoReach have one; every other method is
// rebuilt from the network wherever it is used.
var ErrNotPersistable = core.ErrNotPersistable

// Save writes the index's state to w in the current v2 flat format: a
// single relocatable image whose sections are the index's
// structure-of-arrays columns at 64-byte-aligned offsets, loadable by
// streaming decode (LoadIndex) or zero-copy mmap (OpenMapped). Reload
// over the same network. Saving an OpenMapped index re-emits the
// mapped columns themselves, so save(load(file)) reproduces the file
// byte for byte. The image is little-endian; on a big-endian host Save
// returns an error. Only ThreeDReach and GeoReach indexes save
// (Method.Persistable); any other returns ErrNotPersistable before
// writing a byte.
func (idx *Index) Save(w io.Writer) error {
	return core.SaveEngine(w, idx.engine)
}

// SaveFile writes the index to the named file atomically and durably:
// the bytes go to a temporary file in the same directory which is
// fsynced, renamed over the destination only after a successful write
// and close, and then the directory itself is fsynced — without that
// last step a crash shortly after SaveFile returns could roll the
// directory entry back to the old (or no) file even though the rename
// already "happened".
func (idx *Index) SaveFile(path string) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("rangereach: %w", err)
	}
	tmp := f.Name()
	if err := idx.Save(f); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("rangereach: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("rangereach: %w", err)
	}
	// CreateTemp opens 0600; restore the 0644 a plain Create would give.
	if err := os.Chmod(tmp, 0o644); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("rangereach: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("rangereach: %w", err)
	}
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("rangereach: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("rangereach: syncing %s: %w", dir, err)
	}
	return nil
}

// LoadIndex reads an index saved with Index.Save and attaches it to the
// network, which must be identical to the one the index was built over.
// It reads the layout Save writes and the one generation before it
// (3DReach labels keyed by post). An older file — the v1 stream, or a
// 3DReach whose points sit in an R-tree — is refused with an error that
// wraps core.ErrRetiredFormat and names the upgrade; so is the record
// of a method that no longer saves (3DReach-Rev, SocReach, SpaReach,
// Auto), whose remedy is a rebuild from the network.
func (n *Network) LoadIndex(r io.Reader) (*Index, error) {
	res, err := core.LoadEngine(r, n.prep)
	if err != nil {
		return nil, err
	}
	m, err := methodFromCore(res.Method)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		net:    n,
		method: m,
		engine: res.Engine,
		stats:  IndexStats{Method: m, Bytes: res.Bytes},
	}
	// A decodable file can still describe an inconsistent structure
	// (bit rot past the length checks); deep-validate before handing it
	// out so corruption surfaces at load, not as wrong answers.
	if err := idx.Validate(); err != nil {
		return nil, fmt.Errorf("rangereach: loaded index failed validation: %w", err)
	}
	return idx, nil
}

// LoadIndexFile reads an index from the named file.
func (n *Network) LoadIndexFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("rangereach: %w", err)
	}
	defer f.Close()
	return n.LoadIndex(f)
}

// OpenMapped memory-maps a v2 index file and assembles the index
// directly over the mapped pages: no decode pass, no per-structure
// copies, O(1) allocations regardless of index size. The open costs one
// pass over the label and id columns (below); beyond those the OS pages
// in only what queries touch. The Network it is called on must already
// be loaded and prepared, which on a large network takes seconds and
// dominates a cold start. Call
// Index.Close when done; the index must not be used afterwards. It
// maps what LoadIndex reads and refuses what LoadIndex refuses.
//
// Unlike LoadIndex, OpenMapped skips the deep validation pass, which
// reads every tile entry to check containment and checks every label
// set against the post-order numbers. The open still makes one linear
// pass over the label and post columns and the tiles' offset and id
// columns (not their geometry), verifying everything memory safety
// and the label searches need: section bounds and alignment, offset
// tiling, the post-order bijection, each label set in range, ascending
// and disjoint, corner counts, entry-id ranges. A file corrupt in
// those ways is a load error; one corrupt only in its geometry or in
// which posts a label covers can answer wrongly, never panic. Run
// Index.Validate explicitly (e.g. rrserve -check) to get the full pass.
func (n *Network) OpenMapped(path string) (*Index, error) {
	res, closer, err := core.OpenMappedEngine(path, n.prep)
	if err != nil {
		return nil, err
	}
	m, err := methodFromCore(res.Method)
	if err != nil {
		_ = closer.Close()
		return nil, err
	}
	return &Index{
		net:     n,
		method:  m,
		engine:  res.Engine,
		stats:   IndexStats{Method: m, Bytes: res.Bytes},
		mapping: closer,
		mapped:  res.Mapped,
		mappedB: res.MappedBytes,
	}, nil
}
