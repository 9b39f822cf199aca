// Package flatbuf implements the container layer of the flat index
// format v2: a single relocatable image holding a magic/version header,
// a section table and 64-byte-aligned payload sections. The layout is
// position-independent — every section is addressed by (owner, kind)
// through the table, never by absolute pointer — so the same bytes can
// be decoded from a stream into an anonymous buffer or mmap'd and
// overlaid in place with zero copies.
//
// Image layout (all integers little-endian):
//
//	offset  size  field
//	     0     4  magic "RRX2"
//	     4     2  version (currently 2)
//	     6     2  endian mark 0x0102 (bytes 02 01 on disk)
//	     8     4  section count
//	    12     4  reserved (zero)
//	    16     8  table offset (always 64)
//	    24     8  data offset (first 64-aligned byte after the table)
//	    32     8  file size
//	    40    24  reserved (zero)
//	    64   32×n section table: {owner u32, kind u32, off u64, len u64,
//	              reserved u64}
//	     …        sections, each starting at a 64-byte-aligned offset,
//	              zero-padded up to the next section
//
// Alignment rules: section offsets are multiples of 64 (a cache line),
// so any element type up to 8 bytes overlays a section without copying
// as long as the image base itself is at least 8-aligned — which both
// mmap (page-aligned) and AlignedBytes (uint64-backed) guarantee.
// Multi-byte values are stored in little-endian host order; the zero-
// copy casts refuse to run on a big-endian host (see CastSlice), which
// can therefore neither write nor open an image.
package flatbuf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"unsafe"
)

// Magic identifies a format-v2 image.
var Magic = [4]byte{'R', 'R', 'X', '2'}

const (
	// Version is the image layout version.
	Version = 2
	// Align is the section alignment: one cache line.
	Align = 64
	// headerSize is the fixed header length.
	headerSize = 64
	// entrySize is one section-table entry.
	entrySize = 32
	// endianMark reads back as 0x0102 only when the image was written
	// and is being read in little-endian order.
	endianMark = 0x0102
	// maxSections bounds the table so a corrupt count cannot drive a
	// huge allocation or scan. Real images hold a few dozen sections.
	maxSections = 1 << 16
)

// ErrFormat is wrapped by every error reporting a malformed image:
// bad magic, impossible table geometry, misaligned or out-of-bounds
// sections, element-size mismatches. errors.Is(err, ErrFormat) lets
// callers distinguish corruption from I/O failures.
var ErrFormat = errors.New("invalid flat image")

// ErrBigEndian is wrapped by errors reporting that the zero-copy paths
// are unavailable on this host: the on-disk order is little-endian and
// the overlay casts never byte-swap.
var ErrBigEndian = errors.New("flat images require a little-endian host")

// hostLittleEndian caches the byte order probe. It is a variable, not a
// constant, so tests can flip it to exercise the big-endian error paths
// on little-endian CI hosts.
var hostLittleEndian = func() bool {
	var probe uint16 = 0x0102
	return *(*byte)(unsafe.Pointer(&probe)) == 0x02
}()

// align64 rounds n up to the next multiple of Align.
func align64(n uint64) uint64 { return (n + Align - 1) &^ (Align - 1) }

// Writer accumulates sections and emits the image. Sections appear in
// the table and in the payload in append order, so a fixed emission
// order on the caller's side yields byte-identical images.
type Writer struct {
	sections []writerSection
}

type writerSection struct {
	owner, kind uint32
	payload     []byte
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Append adds a raw section. The payload is referenced, not copied; the
// caller must keep it unchanged until WriteTo returns. Duplicate
// (owner, kind) pairs are a programming error and surface in WriteTo.
func (w *Writer) Append(owner, kind uint32, payload []byte) {
	w.sections = append(w.sections, writerSection{owner: owner, kind: kind, payload: payload})
}

// AppendSlice adds a section whose payload is the in-memory image of a
// flat element slice (int32, uint64, float64, or any pointer-free
// fixed-size struct of those). On a big-endian host it returns an error
// wrapping ErrBigEndian instead of writing native-order bytes that a
// little-endian reader would misinterpret.
func AppendSlice[T any](w *Writer, owner, kind uint32, v []T) error {
	b, err := bytesOf(v)
	if err != nil {
		return err
	}
	w.Append(owner, kind, b)
	return nil
}

// bytesOf reinterprets a flat element slice as its backing bytes.
func bytesOf[T any](v []T) ([]byte, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("flatbuf: %w", ErrBigEndian)
	}
	if len(v) == 0 {
		return nil, nil
	}
	size := int(unsafe.Sizeof(v[0]))
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*size), nil
}

// WriteTo emits the complete image. It implements io.WriterTo.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	if len(w.sections) > maxSections {
		return 0, fmt.Errorf("flatbuf: %w: %d sections exceed the %d cap",
			ErrFormat, len(w.sections), maxSections)
	}
	seen := make(map[uint64]bool, len(w.sections))
	for _, s := range w.sections {
		key := uint64(s.owner)<<32 | uint64(s.kind)
		if seen[key] {
			return 0, fmt.Errorf("flatbuf: %w: duplicate section owner=%d kind=%d",
				ErrFormat, s.owner, s.kind)
		}
		seen[key] = true
	}

	dataOff := align64(headerSize + entrySize*uint64(len(w.sections)))
	offsets := make([]uint64, len(w.sections))
	cur := dataOff
	for i, s := range w.sections {
		offsets[i] = cur
		cur = align64(cur + uint64(len(s.payload)))
	}
	fileSize := cur

	header := make([]byte, headerSize)
	copy(header, Magic[:])
	binary.LittleEndian.PutUint16(header[4:], Version)
	binary.LittleEndian.PutUint16(header[6:], endianMark)
	binary.LittleEndian.PutUint32(header[8:], uint32(len(w.sections)))
	binary.LittleEndian.PutUint64(header[16:], headerSize)
	binary.LittleEndian.PutUint64(header[24:], dataOff)
	binary.LittleEndian.PutUint64(header[32:], fileSize)

	var written int64
	emit := func(b []byte) error {
		n, err := out.Write(b)
		written += int64(n)
		return err
	}
	if err := emit(header); err != nil {
		return written, err
	}
	entry := make([]byte, entrySize)
	for i, s := range w.sections {
		binary.LittleEndian.PutUint32(entry[0:], s.owner)
		binary.LittleEndian.PutUint32(entry[4:], s.kind)
		binary.LittleEndian.PutUint64(entry[8:], offsets[i])
		binary.LittleEndian.PutUint64(entry[16:], uint64(len(s.payload)))
		binary.LittleEndian.PutUint64(entry[24:], 0)
		if err := emit(entry); err != nil {
			return written, err
		}
	}
	var pad [Align]byte
	if gap := dataOff - (headerSize + entrySize*uint64(len(w.sections))); gap > 0 {
		if err := emit(pad[:gap]); err != nil {
			return written, err
		}
	}
	for i, s := range w.sections {
		if err := emit(s.payload); err != nil {
			return written, err
		}
		end := offsets[i] + uint64(len(s.payload))
		if gap := align64(end) - end; gap > 0 {
			if err := emit(pad[:gap]); err != nil {
				return written, err
			}
		}
	}
	if written != int64(fileSize) {
		return written, fmt.Errorf("flatbuf: wrote %d bytes, layout computed %d", written, fileSize)
	}
	return written, nil
}

// Section is one table entry of an opened image.
type Section struct {
	Owner, Kind uint32
	Off, Len    uint64
}

// Image is a validated flat image over a byte buffer — an anonymous
// decode buffer or a live mmap. The Image never copies section bytes;
// its lifetime is bounded by the buffer's.
type Image struct {
	data     []byte
	sections []Section // sorted by (owner, kind) for lookup
}

// Open validates the header and section table of data and returns the
// image. Every structural property a later Section call relies on is
// checked here: magic, version, endian mark, table bounds, per-section
// 64-alignment, in-bounds extents, and pairwise disjointness. data must
// be at least 8-aligned for the typed casts to succeed later (mmap and
// AlignedBytes both guarantee it).
func Open(data []byte) (*Image, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("flatbuf: %w", ErrBigEndian)
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("flatbuf: %w: %d bytes is shorter than the %d-byte header",
			ErrFormat, len(data), headerSize)
	}
	if [4]byte(data[:4]) != Magic {
		return nil, fmt.Errorf("flatbuf: %w: bad magic %q", ErrFormat, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, fmt.Errorf("flatbuf: %w: unsupported version %d", ErrFormat, v)
	}
	if m := binary.LittleEndian.Uint16(data[6:]); m != endianMark {
		return nil, fmt.Errorf("flatbuf: %w: endian mark %#06x (big-endian writer?)", ErrFormat, m)
	}
	count := binary.LittleEndian.Uint32(data[8:])
	tableOff := binary.LittleEndian.Uint64(data[16:])
	dataOff := binary.LittleEndian.Uint64(data[24:])
	fileSize := binary.LittleEndian.Uint64(data[32:])
	if count > maxSections {
		return nil, fmt.Errorf("flatbuf: %w: implausible section count %d", ErrFormat, count)
	}
	if tableOff != headerSize {
		return nil, fmt.Errorf("flatbuf: %w: table offset %d, want %d", ErrFormat, tableOff, headerSize)
	}
	tableEnd := uint64(headerSize) + entrySize*uint64(count)
	if dataOff != align64(tableEnd) {
		return nil, fmt.Errorf("flatbuf: %w: data offset %d, want %d", ErrFormat, dataOff, align64(tableEnd))
	}
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("flatbuf: %w: header says %d bytes, image holds %d",
			ErrFormat, fileSize, len(data))
	}
	if dataOff > fileSize {
		return nil, fmt.Errorf("flatbuf: %w: data offset %d past end %d", ErrFormat, dataOff, fileSize)
	}

	img := &Image{data: data, sections: make([]Section, count)}
	for i := range img.sections {
		e := data[headerSize+uint64(i)*entrySize:]
		s := Section{
			Owner: binary.LittleEndian.Uint32(e[0:]),
			Kind:  binary.LittleEndian.Uint32(e[4:]),
			Off:   binary.LittleEndian.Uint64(e[8:]),
			Len:   binary.LittleEndian.Uint64(e[16:]),
		}
		if s.Off%Align != 0 {
			return nil, fmt.Errorf("flatbuf: %w: section owner=%d kind=%d offset %d not %d-aligned",
				ErrFormat, s.Owner, s.Kind, s.Off, Align)
		}
		if s.Off < dataOff || s.Len > math.MaxUint64-s.Off || s.Off+s.Len > fileSize {
			return nil, fmt.Errorf("flatbuf: %w: section owner=%d kind=%d [%d,%d) out of bounds [%d,%d)",
				ErrFormat, s.Owner, s.Kind, s.Off, s.Off+s.Len, dataOff, fileSize)
		}
		img.sections[i] = s
	}
	// Disjointness and lookup order in one sort. Equal (owner, kind)
	// pairs are rejected; overlapping extents are rejected regardless of
	// identity so no two typed overlays ever alias each other.
	sort.Slice(img.sections, func(i, j int) bool {
		a, b := img.sections[i], img.sections[j]
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		return a.Kind < b.Kind
	})
	for i := 1; i < len(img.sections); i++ {
		a, b := img.sections[i-1], img.sections[i]
		if a.Owner == b.Owner && a.Kind == b.Kind {
			return nil, fmt.Errorf("flatbuf: %w: duplicate section owner=%d kind=%d",
				ErrFormat, a.Owner, a.Kind)
		}
	}
	byOff := append([]Section(nil), img.sections...)
	sort.Slice(byOff, func(i, j int) bool { return byOff[i].Off < byOff[j].Off })
	for i := 1; i < len(byOff); i++ {
		if byOff[i-1].Off+byOff[i-1].Len > byOff[i].Off {
			return nil, fmt.Errorf("flatbuf: %w: sections owner=%d kind=%d and owner=%d kind=%d overlap",
				ErrFormat, byOff[i-1].Owner, byOff[i-1].Kind, byOff[i].Owner, byOff[i].Kind)
		}
	}
	return img, nil
}

// Section returns the payload bytes of the (owner, kind) section and
// whether it exists. The returned slice aliases the image buffer.
func (img *Image) Section(owner, kind uint32) ([]byte, bool) {
	i := sort.Search(len(img.sections), func(i int) bool {
		s := img.sections[i]
		if s.Owner != owner {
			return s.Owner > owner
		}
		return s.Kind >= kind
	})
	if i < len(img.sections) && img.sections[i].Owner == owner && img.sections[i].Kind == kind {
		s := img.sections[i]
		return img.data[s.Off : s.Off+s.Len : s.Off+s.Len], true
	}
	return nil, false
}

// Sections returns the validated table entries in (owner, kind) order.
func (img *Image) Sections() []Section { return img.sections }

// Size returns the total image size in bytes.
func (img *Image) Size() int64 { return int64(len(img.data)) }

// CastSlice overlays a typed slice onto section bytes without copying.
// T must be a pointer-free fixed-size type whose in-memory layout is
// its on-disk layout (int32, uint64, float64, intervals.Interval, …).
// It fails when the length is not a whole number of elements (the
// "unaligned tail" of a truncated or bit-flipped table), when the base
// address is not element-aligned, or on a big-endian host.
func CastSlice[T any](b []byte) ([]T, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("flatbuf: %w", ErrBigEndian)
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil, fmt.Errorf("flatbuf: %w: zero-size element type", ErrFormat)
	}
	if len(b)%size != 0 {
		return nil, fmt.Errorf("flatbuf: %w: %d-byte section is not a multiple of the %d-byte element",
			ErrFormat, len(b), size)
	}
	n := len(b) / size
	if n == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&b[0])
	if a := unsafe.Alignof(zero); uintptr(p)%a != 0 {
		return nil, fmt.Errorf("flatbuf: %w: section base not %d-aligned for element type",
			ErrFormat, a)
	}
	return unsafe.Slice((*T)(p), n), nil
}

// AlignedBytes returns an n-byte buffer whose base address is 8-aligned
// (it is backed by a []uint64), so a streamed image copied into it
// supports the same typed overlays as an mmap.
func AlignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	backing := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), n)
}

// ReadImage slurps a streamed image into an aligned buffer and opens
// it. This is the portable decode path: one buffer allocation and one
// copy regardless of how many structures the image holds.
func ReadImage(r io.Reader) (*Image, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("flatbuf: reading image: %w", err)
	}
	data := AlignedBytes(len(raw))
	copy(data, raw)
	return Open(data)
}
