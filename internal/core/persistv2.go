package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/flatbuf"
	"repro/internal/geom"
	"repro/internal/georeach"
	"repro/internal/intervals"
	"repro/internal/labeling"
	"repro/internal/rtree"
	"repro/internal/tiles"
)

// Format v2: a single relocatable flatbuf image (see internal/flatbuf)
// whose sections are the engines' structure-of-arrays columns at
// 64-byte-aligned offsets. The same bytes serve two load paths — the
// portable streaming decode (the stream read into one aligned buffer)
// and the zero-copy mmap overlay (OpenMappedEngine) — because every
// section is a typed slice cast straight out of the image.
//
// Sections are keyed (owner, kind); an engine's sections are all under
// owner 0: a manifest section (scalar metadata, little-endian packed
// structs) plus the column sections its method needs. The manifest's
// first bytes are {method u8, policy u8, flags u16}. Two methods write
// a record, 3DReach and GeoReach; a record of any other method is
// refused as retired (DESIGN.md §16).
//
// Emission order is fixed (manifest, then columns in kind order),
// columns are canonical (sorted grid keys, BFS tree layout, tiles
// sorted with ties broken by id), so identical engines serialize
// to byte-identical images — save(load(v2)) round-trips exactly,
// including from a mapped index, whose Save re-encodes from the very
// slices that alias the map.

// Section kinds of the v2 image. Kinds 6–10 held SpaReach-BFL's
// filters, whose records are retired.
const (
	secManifest       = 1
	secLabelPost      = 2  // [n]i32 post-order numbers
	secLabelOrder     = 3  // [n]i32 inverse permutation
	secLabelOff       = 4  // [n+1]u64 label-set offsets
	secLabelData      = 5  // [Σ]Interval concatenated label sets
	secTreeNodeBounds = 11 // [nodes·2d]f64
	secTreeNodeMeta   = 12 // [nodes·2]u32
	secTreeEntryBound = 13 // [size·2d]f64
	secTreeEntryIDs   = 14 // [size]i32
	secGeoFlags       = 15 // [2n]u8 {kind, geoB}
	secGeoRMBR        = 16 // [4n]f64
	secGeoGridOff     = 17 // [n+1]u64
	secGeoGridKeys    = 18 // [Σ]u64
	secTileSlabX      = 19 // [2·slabs]f64 {min x, max x}
	secTileSlabCells  = 20 // [slabs+1]u32 cell offsets
	secTileCellMBR    = 21 // [4·cells]f64 {min x, min y, max x, max y}
	secTileCellPoints = 22 // [cells+1]u32 point offsets
	secTileX          = 23 // [points]f64
	secTileY          = 24 // [points]f64
	secTilePost       = 25 // [points]i32
	secTileID         = 26 // [points]i32
)

// 3DReach's manifest flag bits.
const (
	// threeDFlagExact: the box tree holds exact geometries. Always
	// written with bit 1: the box trees without it held the MBR policy's
	// component boxes, refused by their policy byte.
	threeDFlagExact = 1 << 0
	threeDFlagBoxes = 1 << 1 // spatial index is the box tree
	// threeDFlagSpatial: R-tree sections are present. Set with bit 1,
	// they are the box tree; without it, a point tree written before the
	// tiles, which the loader refuses as retired.
	threeDFlagSpatial = 1 << 2
	threeDFlagTiles   = 1 << 3 // point tiles sections are present
	// threeDFlagRanks: the labels, and the tiles' post column or the
	// boxes' z, hold spatial ranks instead of posts (the layout is the
	// same). A file without it answers in post space as written.
	threeDFlagRanks = 1 << 4
)

// Packed little-endian manifest records (binary.Write lays out fields
// in order with no padding).
type manifestHeader struct {
	Method uint8
	Policy uint8
	Flags  uint16
}

type labelingMeta struct {
	N            uint32
	Uncompressed int64
	Compressed   int64
}

type treeMeta struct {
	MaxEntries     uint32
	Height         uint32
	NumNodes       uint32
	Size           uint32
	LeafBoundBytes uint8
	Dims           uint8
}

type geoMeta struct {
	N      uint32
	Levels uint8
	Space  [4]float64
}

// SaveEngine writes e to w as a v2 flat image. Supported: ThreeDReach
// and GeoReach; others return ErrNotPersistable. The image is
// little-endian and cast from memory, so on a big-endian host the error
// wraps flatbuf.ErrBigEndian.
func SaveEngine(w io.Writer, e Engine) error {
	fw := flatbuf.NewWriter()
	if err := appendEngineSections(fw, e); err != nil {
		return err
	}
	if _, err := fw.WriteTo(w); err != nil {
		return fmt.Errorf("core: saving engine: %w", err)
	}
	return nil
}

// mustWrite encodes v into an in-memory buffer; binary.Write on a
// bytes.Buffer with fixed-size data cannot fail.
func mustWrite(b *bytes.Buffer, v any) {
	if err := binary.Write(b, binary.LittleEndian, v); err != nil {
		panic(err)
	}
}

// appendEngineSections adds one engine's manifest and columns.
func appendEngineSections(fw *flatbuf.Writer, e Engine) error {
	var man bytes.Buffer
	switch eng := e.(type) {
	case *ThreeDReach:
		flags := uint16(threeDFlagTiles)
		if eng.boxes != nil {
			flags = threeDFlagExact | threeDFlagBoxes | threeDFlagSpatial
		}
		if eng.l.Spatial != nil {
			flags |= threeDFlagRanks
		}
		mustWrite(&man, manifestHeader{Method: uint8(MethodThreeDReach), Policy: uint8(dataset.Replicate), Flags: flags})
		mustWrite(&man, labelingMetaOf(eng.l))
		if eng.boxes != nil {
			mustWrite(&man, treeMetaOf(eng.boxes))
		}
		fw.Append(0, secManifest, man.Bytes())
		if err := appendLabelingSections(fw, eng.l); err != nil {
			return err
		}
		if eng.boxes != nil {
			if err := appendTreeSections(fw, eng.boxes); err != nil {
				return err
			}
		} else if err := appendTileSections(fw, eng.points); err != nil {
			return err
		}
	case *GeoReach:
		gm := eng.idx.FlatMeta()
		space := gm.Space
		gflags, rmbr, gridOff, gridKeys := eng.idx.FlatColumns()
		mustWrite(&man, manifestHeader{Method: uint8(MethodGeoReach), Policy: uint8(dataset.Replicate)})
		mustWrite(&man, geoMeta{
			N:      uint32(len(gflags) / 2),
			Levels: uint8(gm.Levels),
			Space:  [4]float64{space.Min.X, space.Min.Y, space.Max.X, space.Max.Y},
		})
		fw.Append(0, secManifest, man.Bytes())
		fw.Append(0, secGeoFlags, gflags)
		for _, err := range []error{
			flatbuf.AppendSlice(fw, 0, secGeoRMBR, rmbr),
			flatbuf.AppendSlice(fw, 0, secGeoGridOff, gridOff),
			flatbuf.AppendSlice(fw, 0, secGeoGridKeys, gridKeys),
		} {
			if err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: %T", ErrNotPersistable, e)
	}
	return nil
}

func labelingMetaOf(l *labeling.Labeling) labelingMeta {
	return labelingMeta{
		N:            uint32(l.NumVertices()),
		Uncompressed: l.UncompressedCount,
		Compressed:   l.CompressedCount,
	}
}

func appendLabelingSections(fw *flatbuf.Writer, l *labeling.Labeling) error {
	post, order, off, data := l.FlatColumns()
	for _, err := range []error{
		flatbuf.AppendSlice(fw, 0, secLabelPost, post),
		flatbuf.AppendSlice(fw, 0, secLabelOrder, order),
		flatbuf.AppendSlice(fw, 0, secLabelOff, off),
		flatbuf.AppendSlice(fw, 0, secLabelData, data),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

func treeMetaOf[B rtree.Bound[B]](f *rtree.Flat[B]) treeMeta {
	var zero B
	m := f.Meta()
	return treeMeta{
		MaxEntries:     uint32(m.MaxEntries),
		Height:         uint32(m.Height),
		NumNodes:       uint32(f.NumNodes()),
		Size:           uint32(m.Size),
		LeafBoundBytes: uint8(m.LeafBoundBytes),
		Dims:           uint8(zero.Dims()),
	}
}

func appendTreeSections[B rtree.Bound[B]](fw *flatbuf.Writer, f *rtree.Flat[B]) error {
	nodeBounds, nodeMeta, entryBounds, entryIDs := f.Raw()
	for _, err := range []error{
		flatbuf.AppendSlice(fw, 0, secTreeNodeBounds, nodeBounds),
		flatbuf.AppendSlice(fw, 0, secTreeNodeMeta, nodeMeta),
		flatbuf.AppendSlice(fw, 0, secTreeEntryBound, entryBounds),
		flatbuf.AppendSlice(fw, 0, secTreeEntryIDs, entryIDs),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

func appendTileSections(fw *flatbuf.Writer, t *tiles.Tiles) error {
	c := t.Columns()
	for _, err := range []error{
		flatbuf.AppendSlice(fw, 0, secTileSlabX, c.SlabX),
		flatbuf.AppendSlice(fw, 0, secTileSlabCells, c.SlabCells),
		flatbuf.AppendSlice(fw, 0, secTileCellMBR, c.CellMBR),
		flatbuf.AppendSlice(fw, 0, secTileCellPoints, c.CellPoints),
		flatbuf.AppendSlice(fw, 0, secTileX, c.X),
		flatbuf.AppendSlice(fw, 0, secTileY, c.Y),
		flatbuf.AppendSlice(fw, 0, secTilePost, c.Post),
		flatbuf.AppendSlice(fw, 0, secTileID, c.ID),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadEngineV2 assembles an engine from an opened image. The image may
// be a decoded copy or a live mmap; either way the engine's columns
// alias img's data, which must outlive the engine.
func loadEngineV2(img *flatbuf.Image, prep *dataset.Prepared) (BuildResult, error) {
	mr, h, err := openManifest(img)
	if err != nil {
		return BuildResult{}, err
	}
	m := Method(h.Method)
	policy := dataset.SCCPolicy(h.Policy)
	e, err := loadRecordV2(img, mr, m, policy, h.Flags, prep)
	if err != nil {
		return BuildResult{}, err
	}
	return BuildResult{
		Engine: e,
		Method: m,
		Policy: policy,
		Bytes:  e.MemoryBytes(),
	}, nil
}

// openManifest reads the manifest header and returns a reader
// positioned at the method-specific payload.
func openManifest(img *flatbuf.Image) (*bytes.Reader, manifestHeader, error) {
	var h manifestHeader
	man, ok := img.Section(0, secManifest)
	if !ok {
		return nil, h, fmt.Errorf("core: %w: missing manifest", flatbuf.ErrFormat)
	}
	mr := bytes.NewReader(man)
	if err := binary.Read(mr, binary.LittleEndian, &h); err != nil {
		return nil, h, fmt.Errorf("core: %w: manifest: %v", flatbuf.ErrFormat, err)
	}
	return mr, h, nil
}

// readManifest decodes one packed record from the manifest reader.
func readManifest(mr *bytes.Reader, v any) error {
	if err := binary.Read(mr, binary.LittleEndian, v); err != nil {
		return fmt.Errorf("core: %w: manifest: %v", flatbuf.ErrFormat, err)
	}
	return nil
}

// manifestDone rejects trailing manifest bytes — a manifest longer than
// its method's record set is corruption, not forward compatibility
// (that is what the version field is for).
func manifestDone(mr *bytes.Reader) error {
	if mr.Len() != 0 {
		return fmt.Errorf("core: %w: %d trailing manifest bytes", flatbuf.ErrFormat, mr.Len())
	}
	return nil
}

// castSection overlays a typed slice on a section.
func castSection[T any](img *flatbuf.Image, kind uint32) ([]T, error) {
	b, ok := img.Section(0, kind)
	if !ok {
		return nil, fmt.Errorf("core: %w: missing section kind=%d", flatbuf.ErrFormat, kind)
	}
	v, err := flatbuf.CastSlice[T](b)
	if err != nil {
		return nil, fmt.Errorf("core: section kind=%d: %w", kind, err)
	}
	return v, nil
}

// loadRecordV2 assembles the engine from its sections. A record of a
// method that no longer saves is refused as retired, after the
// MBR-policy check that names the older refusal.
func loadRecordV2(img *flatbuf.Image, mr *bytes.Reader, m Method, policy dataset.SCCPolicy, flags uint16, prep *dataset.Prepared) (Engine, error) {
	if (m == MethodThreeDReach || m == MethodThreeDReachRev) && policy != dataset.Replicate {
		if policy == dataset.MBR {
			return nil, retired(m.String()+" MBR policy", "rebuild from the network with Replicate")
		}
		return nil, fmt.Errorf("core: %w: %v policy byte %d", flatbuf.ErrFormat, m, policy)
	}
	switch m {
	case MethodThreeDReach:
		hasTree, hasBoxes := flags&threeDFlagSpatial != 0, flags&threeDFlagBoxes != 0
		exact := flags&threeDFlagExact != 0
		tiled := flags&threeDFlagTiles != 0
		switch {
		case tiled:
			if hasTree || hasBoxes || exact || prep.Net.HasExtents() {
				return nil, fmt.Errorf("core: %w: 3DReach flags %#x inconsistent with point tiles",
					flatbuf.ErrFormat, flags)
			}
		case !hasTree:
			return nil, retired("3DReach without spatial sections", upgradeRemedy)
		case !hasBoxes:
			return nil, retired("3DReach point R-tree", upgradeRemedy)
		}
		l, err := loadLabelingV2(img, mr, prep)
		if err != nil {
			return nil, err
		}
		if flags&threeDFlagRanks != 0 {
			l.Spatial = prep.HasSpatial
		}
		if tiled {
			t, err := loadTilesV2(img, prep)
			if err != nil {
				return nil, err
			}
			if err := manifestDone(mr); err != nil {
				return nil, err
			}
			return &ThreeDReach{prep: prep, l: l, points: t}, nil
		}
		f, err := loadFlatTreeV2[geom.Box3](img, mr, 3, prep.Net.NumVertices())
		if err != nil {
			return nil, err
		}
		if err := manifestDone(mr); err != nil {
			return nil, err
		}
		return &ThreeDReach{prep: prep, l: l, boxes: f}, nil
	case MethodGeoReach:
		var gm geoMeta
		if err := readManifest(mr, &gm); err != nil {
			return nil, err
		}
		if err := manifestDone(mr); err != nil {
			return nil, err
		}
		gflags, ok := img.Section(0, secGeoFlags)
		if !ok {
			return nil, fmt.Errorf("core: %w: missing section kind=%d", flatbuf.ErrFormat, secGeoFlags)
		}
		rmbr, err := castSection[float64](img, secGeoRMBR)
		if err != nil {
			return nil, err
		}
		gridOff, err := castSection[uint64](img, secGeoGridOff)
		if err != nil {
			return nil, err
		}
		gridKeys, err := castSection[uint64](img, secGeoGridKeys)
		if err != nil {
			return nil, err
		}
		idx, err := georeach.FromFlat(prep, georeach.FlatMeta{
			Levels: int(gm.Levels),
			Space:  geom.NewRect(gm.Space[0], gm.Space[1], gm.Space[2], gm.Space[3]),
		}, gflags, rmbr, gridOff, gridKeys)
		if err != nil {
			return nil, fmt.Errorf("core: %w: %v", flatbuf.ErrFormat, err)
		}
		return &GeoReach{idx: idx}, nil
	case MethodThreeDReachRev, MethodSocReach, MethodSpaReachBFL, MethodSpaReachINT, MethodAuto:
		return nil, retired(m.String()+" record", "rebuild from the network")
	default:
		return nil, fmt.Errorf("core: %w: method %v is not loadable from a flat image", flatbuf.ErrFormat, m)
	}
}

// loadLabelingV2 reads the labelingMeta record then overlays the four
// label columns; labeling.FromFlat validates them.
func loadLabelingV2(img *flatbuf.Image, mr *bytes.Reader, prep *dataset.Prepared) (*labeling.Labeling, error) {
	var lm labelingMeta
	if err := readManifest(mr, &lm); err != nil {
		return nil, err
	}
	post, err := castSection[int32](img, secLabelPost)
	if err != nil {
		return nil, err
	}
	order, err := castSection[int32](img, secLabelOrder)
	if err != nil {
		return nil, err
	}
	off, err := castSection[uint64](img, secLabelOff)
	if err != nil {
		return nil, err
	}
	data, err := castSection[intervals.Interval](img, secLabelData)
	if err != nil {
		return nil, err
	}
	if int(lm.N) != len(post) {
		return nil, fmt.Errorf("core: %w: manifest says %d vertices, post column has %d",
			flatbuf.ErrFormat, lm.N, len(post))
	}
	// Empty sections cast to nil; FromFlat wants the n+1 offsets shape.
	if len(post) == 0 && len(off) == 0 {
		off = []uint64{0}
	}
	l, err := labeling.FromFlat(post, order, off, data, lm.Uncompressed, lm.Compressed)
	if err != nil {
		return nil, fmt.Errorf("core: %w: %v", flatbuf.ErrFormat, err)
	}
	if l.NumVertices() != prep.NumComponents() {
		return nil, fmt.Errorf("core: labeling has %d vertices, network has %d components",
			l.NumVertices(), prep.NumComponents())
	}
	return l, nil
}

// loadFlatTreeV2 reads a treeMeta record, overlays the tree columns and
// range-checks every entry id against limit — ids index SpatialMembers
// and the network's vertex tables, so an out-of-range id in a corrupt
// file would otherwise become a query-time panic.
func loadFlatTreeV2[B rtree.Bound[B]](img *flatbuf.Image, mr *bytes.Reader, wantDims, limit int) (*rtree.Flat[B], error) {
	var tm treeMeta
	if err := readManifest(mr, &tm); err != nil {
		return nil, err
	}
	if int(tm.Dims) != wantDims {
		return nil, fmt.Errorf("core: %w: tree has %d dims, want %d",
			flatbuf.ErrFormat, tm.Dims, wantDims)
	}
	nodeBounds, err := castSection[float64](img, secTreeNodeBounds)
	if err != nil {
		return nil, err
	}
	nodeMeta, err := castSection[uint32](img, secTreeNodeMeta)
	if err != nil {
		return nil, err
	}
	entryBounds, err := castSection[float64](img, secTreeEntryBound)
	if err != nil {
		return nil, err
	}
	entryIDs, err := castSection[int32](img, secTreeEntryIDs)
	if err != nil {
		return nil, err
	}
	if int(tm.NumNodes)*2 != len(nodeMeta) {
		return nil, fmt.Errorf("core: %w: manifest says %d nodes, meta column has %d",
			flatbuf.ErrFormat, tm.NumNodes, len(nodeMeta)/2)
	}
	f, err := rtree.NewFlat[B](rtree.FlatMeta{
		MaxEntries:     int(tm.MaxEntries),
		Height:         int(tm.Height),
		Size:           int(tm.Size),
		LeafBoundBytes: int(tm.LeafBoundBytes),
	}, nodeBounds, nodeMeta, entryBounds, entryIDs)
	if err != nil {
		return nil, fmt.Errorf("core: %w: %v", flatbuf.ErrFormat, err)
	}
	for _, id := range entryIDs {
		if id < 0 || int(id) >= limit {
			return nil, fmt.Errorf("core: %w: tree entry id %d outside [0,%d)",
				flatbuf.ErrFormat, id, limit)
		}
	}
	return f, nil
}

// loadTilesV2 overlays 3DReach's point tiles; tiles.FromColumns checks
// their offsets and range-checks every id against the network.
func loadTilesV2(img *flatbuf.Image, prep *dataset.Prepared) (*tiles.Tiles, error) {
	var c tiles.Columns
	var err error
	if c.SlabX, err = castSection[float64](img, secTileSlabX); err != nil {
		return nil, err
	}
	if c.SlabCells, err = castSection[uint32](img, secTileSlabCells); err != nil {
		return nil, err
	}
	if c.CellMBR, err = castSection[float64](img, secTileCellMBR); err != nil {
		return nil, err
	}
	if c.CellPoints, err = castSection[uint32](img, secTileCellPoints); err != nil {
		return nil, err
	}
	if c.X, err = castSection[float64](img, secTileX); err != nil {
		return nil, err
	}
	if c.Y, err = castSection[float64](img, secTileY); err != nil {
		return nil, err
	}
	if c.Post, err = castSection[int32](img, secTilePost); err != nil {
		return nil, err
	}
	if c.ID, err = castSection[int32](img, secTileID); err != nil {
		return nil, err
	}
	t, err := tiles.FromColumns(c, prep.Net.NumVertices())
	if err != nil {
		return nil, fmt.Errorf("core: %w: %v", flatbuf.ErrFormat, err)
	}
	return t, nil
}

// OpenMappedEngine memory-maps a v2 index file and assembles its engine
// directly over the mapped pages: no decode pass, no per-structure
// copies — cold-start cost is the page faults queries actually incur.
// The returned closer owns the mapping; the engine must not be used
// after Close. A retired layout is refused with ErrRetiredFormat, as by
// LoadEngine.
func OpenMappedEngine(path string, prep *dataset.Prepared) (BuildResult, io.Closer, error) {
	m, err := flatbuf.MapFile(path)
	if err != nil {
		return BuildResult{}, nil, err
	}
	img, err := flatbuf.Open(m.Data())
	if err != nil {
		if bytes.HasPrefix(m.Data(), v1Magic) {
			err = retired(path+": v1 stream", upgradeRemedy)
		}
		_ = m.Close()
		return BuildResult{}, nil, err
	}
	res, err := loadEngineV2(img, prep)
	if err != nil {
		_ = m.Close()
		return BuildResult{}, nil, err
	}
	res.MappedBytes = m.Size()
	res.Mapped = m.Mapped()
	return res, m, nil
}
