package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bfl"
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
// Sections are keyed (owner, kind): owner 0 is the root engine, owners
// 1..n the members of an Auto composite in position order. Each owner
// carries a manifest section (scalar metadata, little-endian packed
// structs) plus the column sections its method needs. The manifest's
// first bytes are {method u8, policy u8, flags u16}; the Auto root
// manifest instead carries the member method list and one f64 per
// member (a former cost coefficient, written as autoCoef and ignored on
// load), and each member's own manifest follows under its owner id.
//
// Emission order is fixed (manifest, then columns in kind order, owners
// ascending), columns are canonical (sorted grid keys, BFS tree layout,
// tiles sorted with ties broken by id), so identical engines serialize
// to byte-identical images — save(load(v2)) round-trips exactly,
// including from a mapped index, whose Save re-encodes from the very
// slices that alias the map.

// Section kinds of the v2 image.
const (
	secManifest       = 1
	secLabelPost      = 2  // [n]i32 post-order numbers
	secLabelOrder     = 3  // [n]i32 inverse permutation
	secLabelOff       = 4  // [n+1]u64 label-set offsets
	secLabelData      = 5  // [Σ]Interval concatenated label sets
	secBFLHash        = 6  // [n]i32
	secBFLOut         = 7  // [n·words]u64
	secBFLIn          = 8  // [n·words]u64
	secBFLDiscover    = 9  // [n]i32
	secBFLFinish      = 10 // [n]i32
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

// Manifest flag bits.
const (
	// SocReach: bit 0 is reserved. It once chose a descendant-scan
	// structure, which never changed an answer; it is written as zero
	// and ignored on load.

	threeDFlagExact = 1 << 0 // 3DReach: box tree holds exact geometries
	threeDFlagBoxes = 1 << 1 // 3DReach: spatial index is the box tree
	// threeDFlagSpatial: R-tree sections are present. Set with bit 1,
	// they are the box tree; without it, a point tree written before the
	// tiles, which the loader refuses as retired.
	threeDFlagSpatial = 1 << 2
	threeDFlagTiles   = 1 << 3 // 3DReach: point tiles sections are present
	// threeDFlagRanks: the labels, and the tiles' post column or the
	// boxes' z, hold spatial ranks instead of posts (the layout is the
	// same). A file without it answers in post space as written.
	threeDFlagRanks = 1 << 4
)

// autoCoef fills the Auto manifest's per-member coefficient field. The
// value is the uncalibrated prior of the cost model that once read it,
// so an index saves to the same bytes it did then.
const autoCoef = 1e-7

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

type bflMeta struct {
	N     uint32
	Words uint32
}

type geoMeta struct {
	N      uint32
	Levels uint8
	Space  [4]float64
}

// SaveEngine writes e to w as a v2 flat image. Supported: ThreeDReach,
// ThreeDReachRev, SocReach, SpaReach-BFL, SpaReach-INT, GeoReach and
// Auto composites of those; others return ErrNotPersistable. The image
// is little-endian and cast from memory, so on a big-endian host the
// error wraps flatbuf.ErrBigEndian.
func SaveEngine(w io.Writer, e Engine) error {
	fw := flatbuf.NewWriter()
	if auto, ok := e.(*Auto); ok {
		var man bytes.Buffer
		mustWrite(&man, manifestHeader{Method: uint8(MethodAuto), Policy: uint8(auto.policy)})
		mustWrite(&man, uint8(len(auto.members)))
		for _, m := range auto.methods {
			mustWrite(&man, uint8(m))
		}
		for range auto.members {
			mustWrite(&man, autoCoef)
		}
		fw.Append(0, secManifest, man.Bytes())
		for i, member := range auto.members {
			if err := appendEngineSections(fw, uint32(i+1), member); err != nil {
				return fmt.Errorf("auto member %v: %w", auto.methods[i], err)
			}
		}
	} else if err := appendEngineSections(fw, 0, e); err != nil {
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

// appendEngineSections adds one engine's manifest and columns under the
// owner id. Composite engines never reach here — SaveEngine unrolls
// Auto itself (and the format forbids nesting).
func appendEngineSections(fw *flatbuf.Writer, owner uint32, e Engine) error {
	var man bytes.Buffer
	switch eng := e.(type) {
	case *ThreeDReach:
		flags := uint16(threeDFlagTiles)
		if eng.boxes != nil {
			flags = threeDFlagBoxes | threeDFlagSpatial
			if eng.exactBoxes {
				flags |= threeDFlagExact
			}
		}
		if eng.l.Spatial != nil {
			flags |= threeDFlagRanks
		}
		mustWrite(&man, manifestHeader{Method: uint8(MethodThreeDReach), Policy: uint8(eng.policy), Flags: flags})
		mustWrite(&man, labelingMetaOf(eng.l))
		if eng.boxes != nil {
			mustWrite(&man, treeMetaOf(eng.boxes))
		}
		fw.Append(owner, secManifest, man.Bytes())
		if err := appendLabelingSections(fw, owner, eng.l); err != nil {
			return err
		}
		if eng.boxes != nil {
			if err := appendTreeSections(fw, owner, eng.boxes); err != nil {
				return err
			}
		} else if err := appendTileSections(fw, owner, eng.points); err != nil {
			return err
		}
	case *ThreeDReachRev:
		mustWrite(&man, manifestHeader{Method: uint8(MethodThreeDReachRev), Policy: uint8(eng.policy)})
		mustWrite(&man, labelingMetaOf(eng.rev))
		mustWrite(&man, treeMetaOf(eng.tree))
		fw.Append(owner, secManifest, man.Bytes())
		if err := appendLabelingSections(fw, owner, eng.rev); err != nil {
			return err
		}
		if err := appendTreeSections(fw, owner, eng.tree); err != nil {
			return err
		}
	case *SocReach:
		mustWrite(&man, manifestHeader{Method: uint8(MethodSocReach), Policy: uint8(dataset.Replicate)})
		mustWrite(&man, labelingMetaOf(eng.l))
		fw.Append(owner, secManifest, man.Bytes())
		if err := appendLabelingSections(fw, owner, eng.l); err != nil {
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
		fw.Append(owner, secManifest, man.Bytes())
		fw.Append(owner, secGeoFlags, gflags)
		for _, err := range []error{
			flatbuf.AppendSlice(fw, owner, secGeoRMBR, rmbr),
			flatbuf.AppendSlice(fw, owner, secGeoGridOff, gridOff),
			flatbuf.AppendSlice(fw, owner, secGeoGridKeys, gridKeys),
		} {
			if err != nil {
				return err
			}
		}
	case *SpaReach:
		switch reach := eng.reach.(type) {
		case *labeling.Labeling:
			mustWrite(&man, manifestHeader{Method: uint8(MethodSpaReachINT), Policy: uint8(eng.policy)})
			mustWrite(&man, labelingMetaOf(reach))
			mustWrite(&man, treeMetaOf(eng.tree))
			fw.Append(owner, secManifest, man.Bytes())
			if err := appendLabelingSections(fw, owner, reach); err != nil {
				return err
			}
		case *bfl.Index:
			words, hash, out, in, discover, finish := reach.Flat()
			mustWrite(&man, manifestHeader{Method: uint8(MethodSpaReachBFL), Policy: uint8(eng.policy)})
			mustWrite(&man, bflMeta{N: uint32(len(hash)), Words: uint32(words)})
			mustWrite(&man, treeMetaOf(eng.tree))
			fw.Append(owner, secManifest, man.Bytes())
			for _, s := range []error{
				flatbuf.AppendSlice(fw, owner, secBFLHash, hash),
				flatbuf.AppendSlice(fw, owner, secBFLOut, out),
				flatbuf.AppendSlice(fw, owner, secBFLIn, in),
				flatbuf.AppendSlice(fw, owner, secBFLDiscover, discover),
				flatbuf.AppendSlice(fw, owner, secBFLFinish, finish),
			} {
				if s != nil {
					return s
				}
			}
		default:
			return fmt.Errorf("%w: SpaReach backend %T", ErrNotPersistable, reach)
		}
		if err := appendTreeSections(fw, owner, eng.tree); err != nil {
			return err
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

func appendLabelingSections(fw *flatbuf.Writer, owner uint32, l *labeling.Labeling) error {
	post, order, off, data := l.FlatColumns()
	for _, err := range []error{
		flatbuf.AppendSlice(fw, owner, secLabelPost, post),
		flatbuf.AppendSlice(fw, owner, secLabelOrder, order),
		flatbuf.AppendSlice(fw, owner, secLabelOff, off),
		flatbuf.AppendSlice(fw, owner, secLabelData, data),
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

func appendTreeSections[B rtree.Bound[B]](fw *flatbuf.Writer, owner uint32, f *rtree.Flat[B]) error {
	nodeBounds, nodeMeta, entryBounds, entryIDs := f.Raw()
	for _, err := range []error{
		flatbuf.AppendSlice(fw, owner, secTreeNodeBounds, nodeBounds),
		flatbuf.AppendSlice(fw, owner, secTreeNodeMeta, nodeMeta),
		flatbuf.AppendSlice(fw, owner, secTreeEntryBound, entryBounds),
		flatbuf.AppendSlice(fw, owner, secTreeEntryIDs, entryIDs),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

func appendTileSections(fw *flatbuf.Writer, owner uint32, t *tiles.Tiles) error {
	c := t.Columns()
	for _, err := range []error{
		flatbuf.AppendSlice(fw, owner, secTileSlabX, c.SlabX),
		flatbuf.AppendSlice(fw, owner, secTileSlabCells, c.SlabCells),
		flatbuf.AppendSlice(fw, owner, secTileCellMBR, c.CellMBR),
		flatbuf.AppendSlice(fw, owner, secTileCellPoints, c.CellPoints),
		flatbuf.AppendSlice(fw, owner, secTileX, c.X),
		flatbuf.AppendSlice(fw, owner, secTileY, c.Y),
		flatbuf.AppendSlice(fw, owner, secTilePost, c.Post),
		flatbuf.AppendSlice(fw, owner, secTileID, c.ID),
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
func loadEngineV2(img *flatbuf.Image, prep *dataset.Prepared, opts BuildOptions) (BuildResult, error) {
	mr, h, err := openManifest(img, 0)
	if err != nil {
		return BuildResult{}, err
	}
	m := Method(h.Method)
	policy := dataset.SCCPolicy(h.Policy)
	var e Engine
	if m == MethodAuto {
		e, err = loadAutoV2(img, mr, prep, opts, policy)
	} else {
		e, err = loadEngineOwnerV2(img, 0, mr, m, policy, h.Flags, prep, opts)
	}
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

// openManifest reads an owner's manifest header and returns a reader
// positioned at the method-specific payload.
func openManifest(img *flatbuf.Image, owner uint32) (*bytes.Reader, manifestHeader, error) {
	var h manifestHeader
	man, ok := img.Section(owner, secManifest)
	if !ok {
		return nil, h, fmt.Errorf("core: %w: missing manifest for owner %d", flatbuf.ErrFormat, owner)
	}
	mr := bytes.NewReader(man)
	if err := binary.Read(mr, binary.LittleEndian, &h); err != nil {
		return nil, h, fmt.Errorf("core: %w: manifest of owner %d: %v", flatbuf.ErrFormat, owner, err)
	}
	return mr, h, nil
}

// readManifest decodes one packed record from the manifest reader.
func readManifest(mr *bytes.Reader, owner uint32, v any) error {
	if err := binary.Read(mr, binary.LittleEndian, v); err != nil {
		return fmt.Errorf("core: %w: manifest of owner %d: %v", flatbuf.ErrFormat, owner, err)
	}
	return nil
}

// manifestDone rejects trailing manifest bytes — a manifest longer than
// its method's record set is corruption, not forward compatibility
// (that is what the version field is for).
func manifestDone(mr *bytes.Reader, owner uint32) error {
	if mr.Len() != 0 {
		return fmt.Errorf("core: %w: %d trailing manifest bytes for owner %d",
			flatbuf.ErrFormat, mr.Len(), owner)
	}
	return nil
}

// castSection overlays a typed slice on an owner's section.
func castSection[T any](img *flatbuf.Image, owner, kind uint32) ([]T, error) {
	b, ok := img.Section(owner, kind)
	if !ok {
		return nil, fmt.Errorf("core: %w: missing section owner=%d kind=%d", flatbuf.ErrFormat, owner, kind)
	}
	v, err := flatbuf.CastSlice[T](b)
	if err != nil {
		return nil, fmt.Errorf("core: section owner=%d kind=%d: %w", owner, kind, err)
	}
	return v, nil
}

// loadEngineOwnerV2 assembles one engine from its owner's sections.
func loadEngineOwnerV2(img *flatbuf.Image, owner uint32, mr *bytes.Reader, m Method, policy dataset.SCCPolicy, flags uint16, prep *dataset.Prepared, opts BuildOptions) (Engine, error) {
	switch m {
	case MethodThreeDReach:
		hasTree, hasBoxes := flags&threeDFlagSpatial != 0, flags&threeDFlagBoxes != 0
		exact := flags&threeDFlagExact != 0
		tiled := flags&threeDFlagTiles != 0
		switch {
		case tiled:
			if hasTree || hasBoxes || exact || policy == dataset.MBR || prep.Net.HasExtents() {
				return nil, fmt.Errorf("core: %w: 3DReach flags %#x inconsistent with point tiles under policy %v",
					flatbuf.ErrFormat, flags, policy)
			}
		case !hasTree:
			return nil, retired("3DReach without spatial sections")
		case !hasBoxes:
			return nil, retired("3DReach point R-tree")
		case (policy == dataset.MBR) == exact:
			return nil, fmt.Errorf("core: %w: 3DReach flags %#x inconsistent with policy %v",
				flatbuf.ErrFormat, flags, policy)
		}
		l, err := loadLabelingV2(img, owner, mr, prep)
		if err != nil {
			return nil, err
		}
		if flags&threeDFlagRanks != 0 {
			l.Spatial = prep.HasSpatial
		}
		if tiled {
			t, err := loadTilesV2(img, owner, prep)
			if err != nil {
				return nil, err
			}
			if err := manifestDone(mr, owner); err != nil {
				return nil, err
			}
			return &ThreeDReach{prep: prep, policy: policy, l: l, points: t}, nil
		}
		limit := prep.Net.NumVertices()
		if policy == dataset.MBR {
			limit = prep.NumComponents()
		}
		f, err := loadFlatTreeV2[geom.Box3](img, owner, mr, 3, limit)
		if err != nil {
			return nil, err
		}
		if err := manifestDone(mr, owner); err != nil {
			return nil, err
		}
		return &ThreeDReach{prep: prep, policy: policy, l: l, boxes: f, exactBoxes: exact}, nil
	case MethodThreeDReachRev:
		rev, err := loadLabelingV2(img, owner, mr, prep)
		if err != nil {
			return nil, err
		}
		limit := prep.Net.NumVertices()
		if policy == dataset.MBR {
			limit = prep.NumComponents()
		}
		f, err := loadFlatTreeV2[geom.Box3](img, owner, mr, 3, limit)
		if err != nil {
			return nil, err
		}
		if err := manifestDone(mr, owner); err != nil {
			return nil, err
		}
		return &ThreeDReachRev{prep: prep, policy: policy, rev: rev, tree: f}, nil
	case MethodSocReach:
		l, err := loadLabelingV2(img, owner, mr, prep)
		if err != nil {
			return nil, err
		}
		if err := manifestDone(mr, owner); err != nil {
			return nil, err
		}
		return NewSocReachWithLabeling(prep, l), nil
	case MethodSpaReachINT:
		l, err := loadLabelingV2(img, owner, mr, prep)
		if err != nil {
			return nil, err
		}
		f, err := loadSpaTreeV2(img, owner, mr, policy, prep)
		if err != nil {
			return nil, err
		}
		if err := manifestDone(mr, owner); err != nil {
			return nil, err
		}
		so := opts.SpaReach
		so.Policy = policy
		return newSpaReachWithTree("SpaReach-INT", prep, l, f, so), nil
	case MethodSpaReachBFL:
		var bm bflMeta
		if err := readManifest(mr, owner, &bm); err != nil {
			return nil, err
		}
		if int(bm.N) != prep.DAG.NumVertices() {
			return nil, fmt.Errorf("core: %w: BFL has %d vertices, DAG has %d",
				flatbuf.ErrFormat, bm.N, prep.DAG.NumVertices())
		}
		hash, err := castSection[int32](img, owner, secBFLHash)
		if err != nil {
			return nil, err
		}
		out, err := castSection[uint64](img, owner, secBFLOut)
		if err != nil {
			return nil, err
		}
		in, err := castSection[uint64](img, owner, secBFLIn)
		if err != nil {
			return nil, err
		}
		discover, err := castSection[int32](img, owner, secBFLDiscover)
		if err != nil {
			return nil, err
		}
		finish, err := castSection[int32](img, owner, secBFLFinish)
		if err != nil {
			return nil, err
		}
		idx, err := bfl.FromFlat(prep.DAG, int(bm.Words), hash, out, in, discover, finish)
		if err != nil {
			return nil, fmt.Errorf("core: %w: %v", flatbuf.ErrFormat, err)
		}
		f, err := loadSpaTreeV2(img, owner, mr, policy, prep)
		if err != nil {
			return nil, err
		}
		if err := manifestDone(mr, owner); err != nil {
			return nil, err
		}
		so := opts.SpaReach
		so.Policy = policy
		return newSpaReachWithTree("SpaReach-BFL", prep, idx, f, so), nil
	case MethodGeoReach:
		var gm geoMeta
		if err := readManifest(mr, owner, &gm); err != nil {
			return nil, err
		}
		if err := manifestDone(mr, owner); err != nil {
			return nil, err
		}
		gflags, ok := img.Section(owner, secGeoFlags)
		if !ok {
			return nil, fmt.Errorf("core: %w: missing section owner=%d kind=%d", flatbuf.ErrFormat, owner, secGeoFlags)
		}
		rmbr, err := castSection[float64](img, owner, secGeoRMBR)
		if err != nil {
			return nil, err
		}
		gridOff, err := castSection[uint64](img, owner, secGeoGridOff)
		if err != nil {
			return nil, err
		}
		gridKeys, err := castSection[uint64](img, owner, secGeoGridKeys)
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
	default:
		return nil, fmt.Errorf("core: %w: method %v is not loadable from a flat image", flatbuf.ErrFormat, m)
	}
}

// loadLabelingV2 reads the labelingMeta record then overlays the four
// label columns; labeling.FromFlat validates them.
func loadLabelingV2(img *flatbuf.Image, owner uint32, mr *bytes.Reader, prep *dataset.Prepared) (*labeling.Labeling, error) {
	var lm labelingMeta
	if err := readManifest(mr, owner, &lm); err != nil {
		return nil, err
	}
	post, err := castSection[int32](img, owner, secLabelPost)
	if err != nil {
		return nil, err
	}
	order, err := castSection[int32](img, owner, secLabelOrder)
	if err != nil {
		return nil, err
	}
	off, err := castSection[uint64](img, owner, secLabelOff)
	if err != nil {
		return nil, err
	}
	data, err := castSection[intervals.Interval](img, owner, secLabelData)
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
func loadFlatTreeV2[B rtree.Bound[B]](img *flatbuf.Image, owner uint32, mr *bytes.Reader, wantDims, limit int) (*rtree.Flat[B], error) {
	var tm treeMeta
	if err := readManifest(mr, owner, &tm); err != nil {
		return nil, err
	}
	if int(tm.Dims) != wantDims {
		return nil, fmt.Errorf("core: %w: tree of owner %d has %d dims, want %d",
			flatbuf.ErrFormat, owner, tm.Dims, wantDims)
	}
	nodeBounds, err := castSection[float64](img, owner, secTreeNodeBounds)
	if err != nil {
		return nil, err
	}
	nodeMeta, err := castSection[uint32](img, owner, secTreeNodeMeta)
	if err != nil {
		return nil, err
	}
	entryBounds, err := castSection[float64](img, owner, secTreeEntryBound)
	if err != nil {
		return nil, err
	}
	entryIDs, err := castSection[int32](img, owner, secTreeEntryIDs)
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
		return nil, fmt.Errorf("core: %w: owner %d: %v", flatbuf.ErrFormat, owner, err)
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
func loadTilesV2(img *flatbuf.Image, owner uint32, prep *dataset.Prepared) (*tiles.Tiles, error) {
	var c tiles.Columns
	var err error
	if c.SlabX, err = castSection[float64](img, owner, secTileSlabX); err != nil {
		return nil, err
	}
	if c.SlabCells, err = castSection[uint32](img, owner, secTileSlabCells); err != nil {
		return nil, err
	}
	if c.CellMBR, err = castSection[float64](img, owner, secTileCellMBR); err != nil {
		return nil, err
	}
	if c.CellPoints, err = castSection[uint32](img, owner, secTileCellPoints); err != nil {
		return nil, err
	}
	if c.X, err = castSection[float64](img, owner, secTileX); err != nil {
		return nil, err
	}
	if c.Y, err = castSection[float64](img, owner, secTileY); err != nil {
		return nil, err
	}
	if c.Post, err = castSection[int32](img, owner, secTilePost); err != nil {
		return nil, err
	}
	if c.ID, err = castSection[int32](img, owner, secTileID); err != nil {
		return nil, err
	}
	t, err := tiles.FromColumns(c, prep.Net.NumVertices())
	if err != nil {
		return nil, fmt.Errorf("core: %w: owner %d: %v", flatbuf.ErrFormat, owner, err)
	}
	return t, nil
}

// loadSpaTreeV2 loads SpaReach's 2D tree; entry ids are vertices under
// Replicate, components under MBR.
func loadSpaTreeV2(img *flatbuf.Image, owner uint32, mr *bytes.Reader, policy dataset.SCCPolicy, prep *dataset.Prepared) (*rtree.Flat[geom.Rect], error) {
	limit := prep.Net.NumVertices()
	if policy == dataset.MBR {
		limit = prep.NumComponents()
	}
	return loadFlatTreeV2[geom.Rect](img, owner, mr, 2, limit)
}

// loadAutoV2 assembles the composite: the root manifest carries the
// member list and the ignored coefficients, each member its own
// manifest and columns under owner i+1.
func loadAutoV2(img *flatbuf.Image, mr *bytes.Reader, prep *dataset.Prepared, opts BuildOptions, policy dataset.SCCPolicy) (*Auto, error) {
	var n uint8
	if err := readManifest(mr, 0, &n); err != nil {
		return nil, err
	}
	if n == 0 || int(n) > maxAutoMembers {
		return nil, fmt.Errorf("core: %w: auto member count %d out of range [1,%d]",
			flatbuf.ErrFormat, n, maxAutoMembers)
	}
	methods := make([]Method, n)
	for i := range methods {
		var mb uint8
		if err := readManifest(mr, 0, &mb); err != nil {
			return nil, err
		}
		methods[i] = Method(mb)
	}
	coefs := make([]float64, n) // read past, never used
	if err := readManifest(mr, 0, &coefs); err != nil {
		return nil, err
	}
	if err := manifestDone(mr, 0); err != nil {
		return nil, err
	}
	engines := make([]Engine, n)
	for i := range engines {
		owner := uint32(i + 1)
		mmr, mh, err := openManifest(img, owner)
		if err != nil {
			return nil, fmt.Errorf("core: auto member %d: %w", i, err)
		}
		if Method(mh.Method) != methods[i] {
			return nil, fmt.Errorf("core: %w: auto member %d manifest says %v, root says %v",
				flatbuf.ErrFormat, i, Method(mh.Method), methods[i])
		}
		if Method(mh.Method) == MethodAuto {
			return nil, fmt.Errorf("core: %w: auto member %d is itself an auto composite", flatbuf.ErrFormat, i)
		}
		e, err := loadEngineOwnerV2(img, owner, mmr, methods[i], dataset.SCCPolicy(mh.Policy), mh.Flags, prep, opts)
		if err != nil {
			return nil, fmt.Errorf("core: auto member %d: %w", i, err)
		}
		engines[i] = e
	}
	return newAuto(policy, methods, engines), nil
}

// OpenMappedEngine memory-maps a v2 index file and assembles its engine
// directly over the mapped pages: no decode pass, no per-structure
// copies — cold-start cost is the page faults queries actually incur.
// The returned closer owns the mapping; the engine must not be used
// after Close. A retired layout is refused with ErrRetiredFormat, as by
// LoadEngine.
func OpenMappedEngine(path string, prep *dataset.Prepared, opts BuildOptions) (BuildResult, io.Closer, error) {
	m, err := flatbuf.MapFile(path)
	if err != nil {
		return BuildResult{}, nil, err
	}
	img, err := flatbuf.Open(m.Data())
	if err != nil {
		if bytes.HasPrefix(m.Data(), v1Magic) {
			err = retired(path + ": v1 stream")
		}
		_ = m.Close()
		return BuildResult{}, nil, err
	}
	res, err := loadEngineV2(img, prep, opts)
	if err != nil {
		_ = m.Close()
		return BuildResult{}, nil, err
	}
	res.MappedBytes = m.Size()
	res.Mapped = m.Mapped()
	return res, m, nil
}
