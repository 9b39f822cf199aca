package rangereach_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	rangereach "repro"
	"repro/internal/core"
	"repro/internal/flatbuf"
)

// -update-format regenerates the v2 golden fixtures under
// testdata/format/ from the current code. Run it only when the format
// deliberately changes, and commit the new files — the whole point of
// the fixtures is that unintended byte changes fail
// TestFormatCompatGolden. The files under testdata/format/retired are
// frozen refusal inputs (TestFormatRetiredRefused).
var updateFormat = flag.Bool("update-format", false, "regenerate the v2 golden fixtures in testdata/format")

// fixtureMethods are the persistable methods, each pinned by a v2
// golden fixture: interval labels + point tiles (3dreach) and the
// SPA-Graph grid columns (georeach). 3DReach's tiles with extents, the
// layout of networks with extended geometries, are pinned by
// TestFormatLayoutPinned.
var fixtureMethods = []struct {
	slug string
	m    rangereach.Method
}{
	{"3dreach", rangereach.ThreeDReach},
	{"georeach", rangereach.GeoReach},
}

func fixturePath(slug, version string) string {
	return filepath.Join("testdata", "format", slug+"-"+version+".idx")
}

// readFixture returns a private copy of a golden fixture's bytes.
func readFixture(t testing.TB, slug, version string) []byte {
	t.Helper()
	data, err := os.ReadFile(fixturePath(slug, version))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fixtureQueries is the pinned query set every loaded fixture must
// answer exactly; derived from the paper's running example (figure 1).
// The region covers venues 4 (70,80) and 7 (80,60): vertex 0 reaches
// both, vertex 2's downstream venues (5, 8, 11) all lie outside.
func fixtureQueries(t *testing.T, idx *rangereach.Index, name string) {
	t.Helper()
	region := rangereach.NewRect(60, 55, 90, 95)
	cases := []struct {
		vertex int
		region rangereach.Rect
		want   bool
	}{
		{0, region, true},
		{1, region, true},
		{2, region, false},
		{9, region, true},
		{5, region, false},
		{2, rangereach.NewRect(0, 0, 100, 100), true},
		{2, rangereach.NewRect(15, 85, 25, 95), true},
		{3, rangereach.NewRect(0, 0, 100, 100), false},
	}
	for _, c := range cases {
		if got := idx.RangeReach(c.vertex, c.region); got != c.want {
			t.Errorf("%s: RangeReach(%d, %v) = %v, want %v", name, c.vertex, c.region, got, c.want)
		}
	}
}

// TestFormatCompatGolden loads and maps the committed v2 fixture files
// and checks they still validate and answer the pinned queries. This is
// the compatibility contract: a change that breaks decoding of
// yesterday's files fails here, in CI, before it ships. With
// -update-format the test first rewrites the fixtures from the current
// builder.
func TestFormatCompatGolden(t *testing.T) {
	net := fuzzNet()
	if *updateFormat {
		if err := os.MkdirAll(filepath.Join("testdata", "format"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, fm := range fixtureMethods {
			idx, err := net.Build(fm.m)
			if err != nil {
				t.Fatalf("%s: %v", fm.slug, err)
			}
			var v2 bytes.Buffer
			if err := idx.Save(&v2); err != nil {
				t.Fatalf("%s: %v", fm.slug, err)
			}
			if err := os.WriteFile(fixturePath(fm.slug, "v2"), v2.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: wrote v2 (%d bytes)", fm.slug, v2.Len())
		}
	}
	for _, fm := range fixtureMethods {
		name := fm.slug + "-v2"
		t.Run(name, func(t *testing.T) {
			path := fixturePath(fm.slug, "v2")
			idx, err := net.LoadIndexFile(path)
			if err != nil {
				t.Fatalf("loading golden fixture %s: %v", path, err)
			}
			if idx.Method() != fm.m {
				t.Fatalf("fixture decoded as %v, want %v", idx.Method(), fm.m)
			}
			fixtureQueries(t, idx, name+"/decode")

			mapped, err := net.OpenMapped(path)
			if err != nil {
				t.Fatalf("mapping golden fixture %s: %v", path, err)
			}
			defer mapped.Close()
			if err := mapped.Validate(); err != nil {
				t.Fatalf("mapped fixture fails validation: %v", err)
			}
			fixtureQueries(t, mapped, name+"/mmap")
		})
	}
}

// TestFormatV2PostKeys pins the last v2 3DReach fixture whose labels and
// tile column hold posts, frozen from commit 992d7f1 when spatial ranks
// replaced them (manifest flag bit 4 clear). Its tiles are mapped as
// they are, not rebuilt, so it keeps answering in post space: it must
// load, validate, map and answer, and re-save to itself byte for byte.
func TestFormatV2PostKeys(t *testing.T) {
	const want = "0a5c0c0a3969aad0347b967f9ae4547ceccf6bd0d349fee3f8977df8ca2ace48"
	net := fuzzNet()
	path := fixturePath("3dreach", "v2-posts")
	frozen := readFixture(t, "3dreach", "v2-posts")
	sum := sha256.Sum256(frozen)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("%s hashes to %s, want %s", path, got, want)
	}
	loaded, err := net.LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := net.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for name, idx := range map[string]*rangereach.Index{"decode": loaded, "mmap": mapped} {
		if err := idx.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		fixtureQueries(t, idx, name)
		var resaved bytes.Buffer
		if err := idx.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), frozen) {
			t.Errorf("%s: save(%s) differs from itself (%d vs %d bytes)", name, path, resaved.Len(), len(frozen))
		}
	}
}

// TestFormatV2Boxes pins the previous generation of 3DReach over a
// network with extents, frozen from commit 85fb026, the last that wrote
// it: labels plus an R-tree of exact boxes (manifest flag bits 0–2).
// Its loader reads the labels and rebuilds the tiles from the network
// with the file's keys, so it must load, map, validate and answer, and
// re-save as the current layout: byte for byte what a fresh build
// saves.
func TestFormatV2Boxes(t *testing.T) {
	const want = "e11eaf947e544c7833f3d044ffba12ad2d244c5405e631a7b53cd59af73301a3"
	net := fuzzExtentsNet()
	path := fixturePath("3dreach", "v2-boxes")
	frozen := readFixture(t, "3dreach", "v2-boxes")
	sum := sha256.Sum256(frozen)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("%s hashes to %s, want %s", path, got, want)
	}
	current := savedImage(t, net, rangereach.ThreeDReach)
	loaded, err := net.LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := net.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for name, idx := range map[string]*rangereach.Index{"decode": loaded, "mmap": mapped} {
		if err := idx.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		fixtureQueries(t, idx, name)
		var resaved bytes.Buffer
		if err := idx.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), current) {
			t.Errorf("%s: save(%s) is %d bytes unlike a fresh build's %d", name, path, resaved.Len(), len(current))
		}
	}
}

// TestSaveLoadV2ByteIdentical pins the no-stale-re-encode property:
// saving an index loaded (or mapped) from a v2 file reproduces the
// file byte for byte. Save re-emits the index's own columns — which
// for a mapped index are the mapped sections themselves — so a
// re-save can never silently re-encode from stale or rebuilt state.
func TestSaveLoadV2ByteIdentical(t *testing.T) {
	net := fuzzNet()
	dir := t.TempDir()
	for _, fm := range fixtureMethods {
		idx, err := net.Build(fm.m)
		if err != nil {
			t.Fatalf("%s: %v", fm.slug, err)
		}
		path := filepath.Join(dir, fm.slug+".idx")
		if err := idx.SaveFile(path); err != nil {
			t.Fatalf("%s: %v", fm.slug, err)
		}
		original, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		loaded, err := net.LoadIndexFile(path)
		if err != nil {
			t.Fatalf("%s: %v", fm.slug, err)
		}
		var resaved bytes.Buffer
		if err := loaded.Save(&resaved); err != nil {
			t.Fatalf("%s: %v", fm.slug, err)
		}
		if !bytes.Equal(resaved.Bytes(), original) {
			t.Errorf("%s: save(load(file)) differs from file (%d vs %d bytes)",
				fm.slug, resaved.Len(), len(original))
		}

		mapped, err := net.OpenMapped(path)
		if err != nil {
			t.Fatalf("%s: %v", fm.slug, err)
		}
		resaved.Reset()
		err = mapped.Save(&resaved)
		if cerr := mapped.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", fm.slug, err)
		}
		if !bytes.Equal(resaved.Bytes(), original) {
			t.Errorf("%s: save(openMapped(file)) differs from file (%d vs %d bytes)",
				fm.slug, resaved.Len(), len(original))
		}
	}
}

// TestOpenMappedParity checks full query parity between a built index,
// its streaming-decoded load and its zero-copy mapped open, across
// every persistable method and both of 3DReach's tile layouts.
func TestOpenMappedParity(t *testing.T) {
	points, extents := fuzzNet(), fuzzExtentsNet()
	dir := t.TempDir()
	configs := []struct {
		name string
		net  *rangereach.Network
		m    rangereach.Method
	}{
		{"3dreach", points, rangereach.ThreeDReach},
		{"3dreach-extents", extents, rangereach.ThreeDReach},
		{"georeach", points, rangereach.GeoReach},
	}
	for _, c := range configs {
		net := c.net
		t.Run(c.name, func(t *testing.T) {
			built, err := net.Build(c.m)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, c.name+".idx")
			if err := built.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			decoded, err := net.LoadIndexFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := net.OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			if err := mapped.Validate(); err != nil {
				t.Fatalf("mapped index fails deep validation: %v", err)
			}
			// Every vertex × a grid of regions, including degenerate and
			// out-of-space rectangles.
			regions := []rangereach.Rect{
				rangereach.NewRect(60, 55, 90, 95),
				rangereach.NewRect(0, 0, 100, 100),
				rangereach.NewRect(15, 85, 25, 95),
				rangereach.NewRect(70, 80, 70, 80),
				rangereach.NewRect(200, 200, 300, 300),
				rangereach.NewRect(0, 0, 5, 5),
			}
			for v := 0; v < net.NumVertices(); v++ {
				for ri, r := range regions {
					want := built.RangeReach(v, r)
					if got := decoded.RangeReach(v, r); got != want {
						t.Errorf("decode: RangeReach(%d, region %d) = %v, want %v", v, ri, got, want)
					}
					if got := mapped.RangeReach(v, r); got != want {
						t.Errorf("mmap: RangeReach(%d, region %d) = %v, want %v", v, ri, got, want)
					}
				}
			}
		})
	}
}

// retiredFixtures are the files the loader no longer reads (DESIGN.md
// §16), kept under testdata/format/retired as refusal inputs, each with
// the SHA-256 it had when it was last read, what the refusal names, and
// a word of the remedy it names. The v1 streams were written by the last
// commit that could write v1 (0a3ffa7); the R-tree file is the last v2
// 3DReach whose point index was an R-tree (4a92a61); the MBR files are
// the last v2 3DReach and 3DReach-Rev built under the MBR policy
// (0ea6a8a), which only a rebuild replaces. The last six are the golden
// v2 records of the methods that no longer save, moved byte for byte
// from testdata/format when their records retired: each of those
// engines is rebuilt from the network wherever it is used, and no
// workload, smoke or document opened a saved one.
var retiredFixtures = []struct {
	name, found, remedy, sha string
}{
	{"3dreach-v1", "v1 stream", "-save-index", "554f394935ac24e09cc48862ce419c5bb0db9a10f8ec0d3f6299c5c273f7a752"},
	{"3dreach-rev-v1", "v1 stream", "-save-index", "e17af5996f062c4442cbff0c5d4407ec2453b81dc3d597b521cc57a4d831c322"},
	{"socreach-v1", "v1 stream", "-save-index", "60dcd4c9c1680b53bc27d21a12529508769a28b8a970dcade77d979369d092d4"},
	{"spareach-bfl-v1", "v1 stream", "-save-index", "6023625bd6a0c67a59672a4bad26b08208d0a9f3d1ae04fc3f1edca17c775a8c"},
	{"spareach-int-v1", "v1 stream", "-save-index", "1dc9d0f7dd3f15bb69007c6d24d10bd2054cdeffb84ba974a9eb9b091634e1b8"},
	{"georeach-v1", "v1 stream", "-save-index", "f992ba79b1f0ae5663115a579dfcf67224bd0088284da9e4b858be57a245f37f"},
	{"auto-v1", "v1 stream", "-save-index", "1546ebd2e0e83191bb01db2b66273017080bfaafe5978f3761986a78509d25d2"},
	{"3dreach-v2-rtree", "3DReach point R-tree", "-save-index", "8d72b07061bf39bdc8edb03f3214a394af0c792a5c8155aba8b648c5d07a56b9"},
	{"3dreach-mbr-v2", "3DReach MBR policy", "rebuild", "d4a5f390c11e9ca482456040716b98f6f5cfdf1eecd5e1ee7d95e4c050f67011"},
	{"3dreach-rev-mbr-v2", "3DReach-Rev MBR policy", "rebuild", "d501f1d8faadc610e0cff663fd9657786bc6042eb89c5972995a94758b168a59"},
	// SocReach's labels alone: a rebuild is one labeling pass.
	{"socreach-v2", "SocReach record", "rebuild", "a9b17b293a00080da7362e70db4eb0b5a2258e4a826dfc62b83e74cc75827a10"},
	// SpaReach-BFL's filters and 2D tree, the only reader of section
	// kinds 6–10.
	{"spareach-bfl-v2", "SpaReach-BFL record", "rebuild", "430354c05bc6b508ae1b934f88394dceb7095c44a31f37dd123c157d05076d82"},
	// SpaReach-INT's labels and 2D tree; its MBR-policy tree went with it.
	{"spareach-int-v2", "SpaReach-INT record", "rebuild", "74dc48c7c095592163bc80518b0959478cbba99ba0b5579dd98bf648e9320fa6"},
	// 3DReach-Rev's posts and segments (flag bit 0), the last layout
	// Rev's writer wrote.
	{"3dreach-rev-v2", "3DReach-Rev record", "rebuild", "fedd8e160508ca6741f161b345b3ac4f6c23d09cf67d1fb1b36c5764a98543d0"},
	// 3DReach-Rev's older generation with its reversed labels (bit 0
	// clear), frozen from commit 55d06d1.
	{"3dreach-rev-v2-labels", "3DReach-Rev record", "rebuild", "d92823477a652c100a1aebf70db749b1cdcc7ff95db9f9d09c20cd829a62023e"},
	// The Auto composite with members SocReach, the older Rev and
	// SpaReach-INT nested under owners 1..3.
	{"auto-v2", "Auto record", "rebuild", "1f95e47b1dfa55593e0910dfe9bdb59777515edcf563f3ef64d7d33b8d399da0"},
}

func retiredPath(name string) string {
	return filepath.Join("testdata", "format", "retired", name+".idx")
}

// TestFormatV1Frozen pins the retired fixtures by hash. No code can
// write them any more, so a changed file is a mistake by definition,
// and the refusal tests below would no longer test the files that
// were once read.
func TestFormatV1Frozen(t *testing.T) {
	for _, r := range retiredFixtures {
		data, err := os.ReadFile(retiredPath(r.name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != r.sha {
			t.Errorf("%s hashes to %x, want %s", retiredPath(r.name), sum, r.sha)
		}
	}
}

// TestFormatRetiredRefused: LoadIndexFile and OpenMapped refuse every
// retired fixture with an error that wraps core.ErrRetiredFormat and
// names what was found and the remedy, without panicking and without
// returning an index.
func TestFormatRetiredRefused(t *testing.T) {
	net := fuzzNet()
	for _, r := range retiredFixtures {
		t.Run(r.name, func(t *testing.T) {
			path := retiredPath(r.name)
			for name, open := range map[string]func(string) (*rangereach.Index, error){
				"LoadIndexFile": net.LoadIndexFile,
				"OpenMapped":    net.OpenMapped,
			} {
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%s panicked: %v", name, p)
						}
					}()
					idx, err := open(path)
					if idx != nil {
						t.Errorf("%s returned an index", name)
						_ = idx.Close()
					}
					if !errors.Is(err, core.ErrRetiredFormat) || !strings.Contains(err.Error(), r.found) || !strings.Contains(err.Error(), r.remedy) {
						t.Errorf("%s: error %v, want core.ErrRetiredFormat naming %q and %q", name, err, r.found, r.remedy)
					}
				}()
			}
		})
	}
}

// TestOpenMappedV1Rejected pins the targeted error for mapping a v1
// file: the message must name the actual problem (a v1 stream) and the
// fix (the upgrade command), not a generic bad-magic complaint.
func TestOpenMappedV1Rejected(t *testing.T) {
	_, err := fuzzNet().OpenMapped(retiredPath("3dreach-v1"))
	if err == nil {
		t.Fatal("OpenMapped accepted a v1 file")
	}
	for _, want := range []string{"v1", "-load-index", "-save-index"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("v1 mapping error %q does not mention %q", err, want)
		}
	}
}

// everyOffset feeds try the systematic corruptions of a valid file: a
// truncation at every offset (the empty file included), a byte flip at
// every offset, and the file doubled.
func everyOffset(valid []byte, try func(name string, data []byte)) {
	for cut := 0; cut < len(valid); cut++ {
		try(fmt.Sprintf("truncate@%d", cut), valid[:cut])
	}
	mutant := make([]byte, len(valid))
	for off := 0; off < len(valid); off++ {
		copy(mutant, valid)
		mutant[off] ^= 0x41
		try(fmt.Sprintf("flip@%d", off), mutant)
	}
	try("doubled", append(append([]byte(nil), valid...), valid...))
}

// corruptionInput is a valid image and the network it loads over.
type corruptionInput struct {
	name string
	net  *rangereach.Network
	data []byte
}

// savedImage builds m over net and returns the saved bytes.
func savedImage(t testing.TB, net *rangereach.Network, m rangereach.Method) []byte {
	t.Helper()
	idx, err := net.Build(m)
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	return buf.Bytes()
}

// fuzzExtentsNet is the running example with two venues given extents.
func fuzzExtentsNet() *rangereach.Network {
	return buildFuzzNet(func(b *rangereach.NetworkBuilder) {
		b.SetRect(4, rangereach.NewRect(65, 75, 75, 85)).SetRect(8, rangereach.NewRect(15, 85, 25, 95))
	})
}

// layoutInputs are the layouts the loader reads beyond the saves of
// fixtureMethods: the older 3DReach generation (labels and tiles over
// posts), which loads over base, a copy of the running example; the
// tiles with extents of a network with extended geometries; and that
// network's previous generation, labels and a box tree.
func layoutInputs(t testing.TB, base *rangereach.Network) []corruptionInput {
	t.Helper()
	extents := fuzzExtentsNet()
	return []corruptionInput{
		{"3dreach-v2-posts", base, readFixture(t, "3dreach", "v2-posts")},
		{"3dreach-extents", extents, savedImage(t, extents, rangereach.ThreeDReach)},
		{"3dreach-v2-boxes", extents, readFixture(t, "3dreach", "v2-boxes")},
	}
}

// TestFormatV2CorruptionMapped drives the mmap load path through the
// same systematic corruption the streaming path faces in
// TestLoadCorrupted: truncations at every boundary and a byte flip at
// every offset, each written to a real file and opened via OpenMapped,
// over every method's default save and every other layout still read
// (layoutInputs). Every case must fail with a wrapped error or produce
// an index whose pinned queries can run — never a panic, even though the
// mapped path skips deep validation.
func TestFormatV2CorruptionMapped(t *testing.T) {
	net := fuzzNet()
	region := rangereach.NewRect(60, 55, 90, 95)
	path := filepath.Join(t.TempDir(), "mutant.idx")
	var inputs []corruptionInput
	for _, fm := range fixtureMethods {
		inputs = append(inputs, corruptionInput{fm.slug, net, savedImage(t, net, fm.m)})
	}
	for _, in := range append(inputs, layoutInputs(t, net)...) {
		open := func(name string, data []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s/%s: OpenMapped panicked: %v", in.name, name, r)
				}
			}()
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			mapped, err := in.net.OpenMapped(path)
			if err != nil {
				if !strings.Contains(err.Error(), ":") {
					t.Errorf("%s/%s: unwrapped error %q", in.name, name, err)
				}
				return
			}
			// Accepted corruption may answer wrongly but must not crash.
			mapped.RangeReach(0, region)
			mapped.RangeReach(2, region)
			_ = mapped.Close()
		}

		everyOffset(in.data, open)
	}
}

// TestLoadRejectsOutOfOrderLabel crafts the one corruption the
// every-offset flips cannot: a file, valid in every byte, in which two
// intervals of one vertex's label have changed places. 3DReach
// binary-searches the label, so the file would answer wrongly; every
// load path must refuse it — the mapped one included, which walks the
// label column on open for this.
func TestLoadRejectsOutOfOrderLabel(t *testing.T) {
	net := fuzzNet()
	idx, err := net.Build(rangereach.ThreeDReach)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	img, err := flatbuf.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	// Root engine, section kinds 4 and 5: the u64 label-set offsets and
	// the concatenated {lo, hi i32} intervals (DESIGN.md §16).
	offsets, ok1 := img.Section(0, 4)
	ivs, ok2 := img.Section(0, 5)
	if !ok1 || !ok2 {
		t.Fatal("the 3DReach image has no label sections")
	}
	swapped := false
	for v := 0; 8*(v+2) <= len(offsets); v++ {
		lo, hi := binary.LittleEndian.Uint64(offsets[8*v:]), binary.LittleEndian.Uint64(offsets[8*v+8:])
		if hi-lo < 2 {
			continue
		}
		// The sections alias data: this edits the image in place.
		a, b := ivs[8*lo:8*lo+8], ivs[8*lo+8:8*lo+16]
		var tmp [8]byte
		copy(tmp[:], a)
		copy(a, b)
		copy(b, tmp[:])
		swapped = true
		break
	}
	if !swapped {
		t.Fatal("no vertex of the fixture network has a label of two intervals")
	}
	if _, err := net.LoadIndex(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("LoadIndex: error %v, want the label order refused", err)
	}
	path := filepath.Join(t.TempDir(), "swapped.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := net.OpenMapped(path)
	if err == nil {
		_ = mapped.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("OpenMapped: error %v, want the label order refused", err)
	}

}

// TestOpenMappedRejectsTileIDOutOfRange crafts a 3DReach file, valid
// in every other byte, whose first tile point names a vertex past the
// network's last. The mapped path skips deep validation, so the id
// range check in tiles.FromColumns is all that stands between that
// file and a point that names no vertex; both load paths must refuse
// it.
func TestOpenMappedRejectsTileIDOutOfRange(t *testing.T) {
	net := fuzzNet()
	data := savedImage(t, net, rangereach.ThreeDReach)
	img, err := flatbuf.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	// Root engine, section kind 26: the tile points' vertex ids.
	ids, ok := img.Section(0, 26)
	if !ok || len(ids) < 4 {
		t.Fatal("the 3DReach image has no tile id section")
	}
	// The section aliases data: this edits the image in place.
	binary.LittleEndian.PutUint32(ids, uint32(net.NumVertices()))
	if _, err := net.LoadIndex(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("LoadIndex: error %v, want the tile id refused", err)
	}
	path := filepath.Join(t.TempDir(), "id.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := net.OpenMapped(path)
	if err == nil {
		_ = mapped.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("OpenMapped: error %v, want the tile id refused", err)
	}
}

// savedManifest returns a private copy of a method's v2 fixture, with
// its root manifest (section kind 1; its first bytes are {method u8,
// policy u8, flags u16}, DESIGN.md §16) aliasing the image so a test can
// edit it in place.
func savedManifest(t *testing.T, slug string) (v2, manifest []byte) {
	t.Helper()
	v2 = readFixture(t, slug, "v2")
	img, err := flatbuf.Open(v2)
	if err != nil {
		t.Fatal(err)
	}
	manifest, ok := img.Section(0, 1)
	if !ok || len(manifest) < 4 {
		t.Fatal("the image has no root manifest")
	}
	return v2, manifest
}

// TestFormatReservedMethodBytes pins method bytes 6, 7 and 8 as
// reserved: they named SpaReach-PLL, SpaReach-Feline and
// SpaReach-GRAIL, which are gone, and a file carrying one must be a
// load error on every path — not a panic, and not an index of whatever
// method is later given the number.
func TestFormatReservedMethodBytes(t *testing.T) {
	net := fuzzNet()
	v2, manifest := savedManifest(t, "3dreach")
	path := filepath.Join(t.TempDir(), "reserved.idx")
	for _, b := range []byte{6, 7, 8} {
		manifest[0] = b
		_, err := net.LoadIndex(bytes.NewReader(v2))
		if err == nil || !strings.Contains(err.Error(), ":") {
			t.Errorf("LoadIndex, method byte %d: error %v, want a wrapped load error", b, err)
		}
		if err := os.WriteFile(path, v2, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := net.OpenMapped(path)
		if err == nil {
			_ = mapped.Close()
		}
		if err == nil || !strings.Contains(err.Error(), ":") {
			t.Errorf("OpenMapped, method byte %d: error %v, want a wrapped load error", b, err)
		}
	}
}

// TestOpenMappedAllocs pins the O(1)-allocations property of the
// mapped load: opening a 4× larger index must not allocate
// meaningfully more than opening the small one, because every column
// overlays the mapped pages instead of being decoded into fresh
// slices — 3DReach's tiles with extents and GeoReach's ReachGrids
// included, which the query scans as they are stored.
func TestOpenMappedAllocs(t *testing.T) {
	dir := t.TempDir()
	type row struct {
		m       rangereach.Method
		extents bool
	}
	build := func(c row, n int) (*rangereach.Network, string) {
		b := rangereach.NewNetworkBuilder(n)
		for v := 0; v+1 < n; v++ {
			b.AddEdge(v, v+1)
			if v%7 == 0 {
				b.AddEdge(v, (v*13+5)%n)
			}
			if x, y := float64(v%100), float64((v*37)%100); v%6 == 3 && c.extents {
				b.SetRect(v, rangereach.NewRect(x, y, x+2, y+1))
			} else if v%3 == 0 {
				b.SetPoint(v, x, y)
			}
		}
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		idx, err := net.Build(c.m)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("alloc-%v-%v-%d.idx", c.m, c.extents, n))
		if err := idx.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		return net, path
	}
	measure := func(net *rangereach.Network, path string) float64 {
		return testing.AllocsPerRun(10, func() {
			mapped, err := net.OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			_ = mapped.Close()
		})
	}
	for _, c := range []row{{rangereach.ThreeDReach, false}, {rangereach.ThreeDReach, true}, {rangereach.GeoReach, false}} {
		small := measure(build(c, 400))
		big := measure(build(c, 1600))
		// The counts need not be exactly equal (map headers, error paths),
		// but they must not scale with the index: allow a fixed slack.
		if big > small+16 {
			t.Errorf("%+v: mapped open allocations scale with index size: %v at n=400, %v at n=1600", c, small, big)
		}
		t.Logf("%+v mapped open: %.0f allocs at n=400, %.0f at n=1600", c, small, big)
	}
}

// withVenueExtents returns net with every other venue, in vertex order,
// given a 2×2 extent around its point (paper footnote 1), by rewriting
// its p lines as g lines in the text format.
func withVenueExtents(t testing.TB, net *rangereach.Network) *rangereach.Network {
	t.Helper()
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	venues := 0
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "p" {
			if venues++; venues%2 == 0 {
				x, errX := strconv.ParseFloat(f[2], 64)
				y, errY := strconv.ParseFloat(f[3], 64)
				if errX != nil || errY != nil {
					t.Fatalf("point line %q", line)
				}
				line = fmt.Sprintf("g %s %g %g %g %g\n", f[1], x-1, y-1, x+1, y+1)
			}
		}
		out.WriteString(line)
	}
	ext, err := rangereach.ReadNetwork(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

// TestFormatLayoutPinned pins the saved bytes of 3DReach's tiles on a
// network with 10 slabs, over points and over extents; the committed
// fixtures pin the same thing on a network that fits one cell. The
// "3dreach" hash was recorded again when the point tiles replaced its
// point R-tree; that layout is now retired
// (testdata/format/retired/3dreach-v2-rtree.idx).
func TestFormatLayoutPinned(t *testing.T) {
	net := rangereach.GowallaLike(0.1, 7)
	extents := withVenueExtents(t, net)
	for _, c := range []struct {
		name string
		net  *rangereach.Network
		want string
	}{
		// Recorded again when 3DReach's labels and tile column moved from
		// posts to spatial ranks (flag bit 4): same sections, new values
		// (TestFormatV2PostKeys keeps the post-keyed file loading).
		{"3dreach", net, "e1f123f14bb3ba8c0025e97f53f3bf9493894daf66d64b103d80be33e6005df3"},
		// The tiles with extents (flag bit 5): every entry's max corner
		// after the min corners in the x and y sections. Recorded again
		// when they replaced the box tree of exact boxes, whose layout
		// testdata/format/3dreach-v2-boxes.idx keeps (TestFormatV2Boxes).
		{"3dreach-extents", extents, "6d830b7d544ba20ca9c8e69f9e7ed48c6c141df240201850b3de9d4791b71ef3"},
	} {
		idx, err := c.net.Build(rangereach.ThreeDReach)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: saved image (%d bytes) hashes to %s, want %s", c.name, buf.Len(), got, c.want)
		}
	}
}
