package flatbuf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// buildImage writes a small three-section image and returns its bytes
// in an aligned buffer ready for Open.
func buildImage(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	if err := AppendSlice(w, 0, 1, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := AppendSlice(w, 0, 2, []float64{0.5, -1.5}); err != nil {
		t.Fatal(err)
	}
	w.Append(1, 1, []byte{0xAA, 0xBB, 0xCC})
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned %d, wrote %d", n, buf.Len())
	}
	data := AlignedBytes(buf.Len())
	copy(data, buf.Bytes())
	return data
}

func TestRoundTrip(t *testing.T) {
	data := buildImage(t)
	img, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Size() != int64(len(data)) {
		t.Fatalf("Size %d, want %d", img.Size(), len(data))
	}
	if got := len(img.Sections()); got != 3 {
		t.Fatalf("%d sections, want 3", got)
	}

	sec, ok := img.Section(0, 1)
	if !ok {
		t.Fatal("section (0,1) missing")
	}
	ints, err := CastSlice[int32](sec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ints) != 3 || ints[0] != 1 || ints[2] != 3 {
		t.Fatalf("int32 section decoded as %v", ints)
	}

	sec, ok = img.Section(0, 2)
	if !ok {
		t.Fatal("section (0,2) missing")
	}
	floats, err := CastSlice[float64](sec)
	if err != nil {
		t.Fatal(err)
	}
	if len(floats) != 2 || floats[0] != 0.5 || floats[1] != -1.5 {
		t.Fatalf("float64 section decoded as %v", floats)
	}

	sec, ok = img.Section(1, 1)
	if !ok {
		t.Fatal("section (1,1) missing")
	}
	if !bytes.Equal(sec, []byte{0xAA, 0xBB, 0xCC}) {
		t.Fatalf("raw section decoded as %x", sec)
	}

	if _, ok := img.Section(7, 7); ok {
		t.Fatal("lookup of absent section reported ok")
	}
}

// TestSectionAlignment pins the format invariants the zero-copy casts
// rely on: every section offset is a multiple of Align, the data region
// starts at the first aligned byte after the table, and the section
// lookup returns a capacity-capped alias into the image (no write past
// a section can reach its neighbor through append).
func TestSectionAlignment(t *testing.T) {
	data := buildImage(t)
	img, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range img.Sections() {
		if s.Off%Align != 0 {
			t.Errorf("section owner=%d kind=%d at offset %d, not %d-aligned", s.Owner, s.Kind, s.Off, Align)
		}
	}
	sec, _ := img.Section(0, 1)
	if cap(sec) != len(sec) {
		t.Fatalf("section alias has spare capacity %d beyond len %d", cap(sec), len(sec))
	}
}

// TestWriterDeterministic checks that the same append sequence yields
// byte-identical images — the property the save-path determinism tests
// build on.
func TestWriterDeterministic(t *testing.T) {
	a, b := buildImage(t), buildImage(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical writer runs produced different bytes")
	}
}

func TestWriterDuplicateSection(t *testing.T) {
	w := NewWriter()
	w.Append(0, 1, []byte{1})
	w.Append(0, 1, []byte{2})
	if _, err := w.WriteTo(&bytes.Buffer{}); !errors.Is(err, ErrFormat) {
		t.Fatalf("duplicate section: got %v, want ErrFormat", err)
	}
}

func TestWriterEmptyImage(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := AlignedBytes(buf.Len())
	copy(data, buf.Bytes())
	img, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Sections()) != 0 {
		t.Fatalf("empty image has %d sections", len(img.Sections()))
	}
}

// corrupt opens a mutated copy of a valid image and requires an
// ErrFormat error (and no panic).
func corrupt(t *testing.T, name string, mutate func([]byte) []byte) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		data := buildImage(t)
		mutated := mutate(append([]byte(nil), data...))
		aligned := AlignedBytes(len(mutated))
		copy(aligned, mutated)
		if _, err := Open(aligned); !errors.Is(err, ErrFormat) {
			t.Fatalf("got %v, want ErrFormat", err)
		}
	})
}

func TestOpenRejectsMalformed(t *testing.T) {
	corrupt(t, "short", func(b []byte) []byte { return b[:headerSize-1] })
	corrupt(t, "bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt(t, "bad-version", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[4:], 3)
		return b
	})
	corrupt(t, "endian-mark", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[6:], 0x0201)
		return b
	})
	corrupt(t, "huge-count", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], maxSections+1)
		return b
	})
	corrupt(t, "count-past-end", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], 1000)
		return b
	})
	corrupt(t, "table-offset", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[16:], 128)
		return b
	})
	corrupt(t, "data-offset", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+Align)
		return b
	})
	corrupt(t, "file-size", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[32:], uint64(len(b))+1)
		return b
	})
	corrupt(t, "truncated", func(b []byte) []byte { return b[:len(b)-1] })
	corrupt(t, "section-misaligned", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[headerSize+8:])
		binary.LittleEndian.PutUint64(b[headerSize+8:], off+8)
		return b
	})
	corrupt(t, "section-out-of-bounds", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[headerSize+16:], uint64(len(b)))
		return b
	})
	corrupt(t, "section-len-overflow", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[headerSize+16:], ^uint64(0))
		return b
	})
	corrupt(t, "duplicate-entry", func(b []byte) []byte {
		// Make entry 1 a byte-identical copy of entry 0: same (owner,
		// kind) and same extent, caught by the duplicate check.
		copy(b[headerSize+entrySize:headerSize+2*entrySize], b[headerSize:headerSize+entrySize])
		return b
	})
	corrupt(t, "overlapping-sections", func(b []byte) []byte {
		// Point entry 1 at entry 0's extent but keep its distinct
		// (owner, kind), caught by the overlap check.
		copy(b[headerSize+entrySize+8:headerSize+2*entrySize], b[headerSize+8:headerSize+entrySize])
		return b
	})
}

// TestOpenEveryTruncation feeds Open every prefix of a valid image;
// each must fail with a wrapped ErrFormat, never panic.
func TestOpenEveryTruncation(t *testing.T) {
	data := buildImage(t)
	for n := 0; n < len(data); n++ {
		aligned := AlignedBytes(n)
		copy(aligned, data[:n])
		if _, err := Open(aligned); !errors.Is(err, ErrFormat) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrFormat", n, err)
		}
	}
}

func TestCastSliceUnalignedTail(t *testing.T) {
	b := AlignedBytes(12)
	if _, err := CastSlice[float64](b); !errors.Is(err, ErrFormat) {
		t.Fatalf("12 bytes as []float64: got %v, want ErrFormat (unaligned tail)", err)
	}
	if got, err := CastSlice[int32](b); err != nil || len(got) != 3 {
		t.Fatalf("12 bytes as []int32: got %v (len %d), want 3 elements", err, len(got))
	}
}

func TestCastSliceMisalignedBase(t *testing.T) {
	b := AlignedBytes(24)
	if _, err := CastSlice[uint64](b[4:20]); !errors.Is(err, ErrFormat) {
		t.Fatalf("4-aligned base as []uint64: got %v, want ErrFormat", err)
	}
}

func TestCastSliceEmpty(t *testing.T) {
	got, err := CastSlice[uint64](nil)
	if err != nil || got != nil {
		t.Fatalf("empty cast: got %v, %v", got, err)
	}
}

// TestBigEndianRefusal flips the host-order probe and checks that every
// zero-copy entry point degrades to a clean ErrBigEndian error instead
// of silently producing byte-swapped values.
func TestBigEndianRefusal(t *testing.T) {
	data := buildImage(t)
	hostLittleEndian = false
	defer func() { hostLittleEndian = true }()

	if _, err := Open(data); !errors.Is(err, ErrBigEndian) {
		t.Fatalf("Open: got %v, want ErrBigEndian", err)
	}
	if _, err := CastSlice[int32](data); !errors.Is(err, ErrBigEndian) {
		t.Fatalf("CastSlice: got %v, want ErrBigEndian", err)
	}
	w := NewWriter()
	if err := AppendSlice(w, 0, 1, []int32{1}); !errors.Is(err, ErrBigEndian) {
		t.Fatalf("AppendSlice: got %v, want ErrBigEndian", err)
	}
}

func TestAlignedBytes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 4096} {
		b := AlignedBytes(n)
		if len(b) != n {
			t.Fatalf("AlignedBytes(%d) has len %d", n, len(b))
		}
		if n > 0 && uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
			t.Fatalf("AlignedBytes(%d) base not 8-aligned", n)
		}
	}
}

func TestReadImage(t *testing.T) {
	data := buildImage(t)
	img, err := ReadImage(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sec, ok := img.Section(0, 1)
	if !ok {
		t.Fatal("section (0,1) missing after ReadImage")
	}
	if _, err := CastSlice[int32](sec); err != nil {
		t.Fatalf("cast over ReadImage buffer: %v", err)
	}
	if _, err := ReadImage(strings.NewReader("not an image")); !errors.Is(err, ErrFormat) {
		t.Fatalf("garbage stream: got %v, want ErrFormat", err)
	}
}

func TestMapFile(t *testing.T) {
	data := buildImage(t)
	path := filepath.Join(t.TempDir(), "img.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != int64(len(data)) {
		t.Fatalf("mapping size %d, want %d", m.Size(), len(data))
	}
	if !bytes.Equal(m.Data(), data) {
		t.Fatal("mapped bytes differ from file bytes")
	}
	if _, err := Open(m.Data()); err != nil {
		t.Fatalf("opening mapped bytes: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v (want idempotent nil)", err)
	}
	if m.Data() != nil {
		t.Fatal("Data() non-nil after Close")
	}
}

func TestMapFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := MapFile(filepath.Join(dir, "absent.idx")); err == nil {
		t.Fatal("mapping a missing file succeeded")
	}
	empty := filepath.Join(dir, "empty.idx")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MapFile(empty); !errors.Is(err, ErrFormat) {
		t.Fatalf("mapping an empty file: got %v, want ErrFormat", err)
	}
}
