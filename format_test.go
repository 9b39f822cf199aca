package rangereach_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rangereach "repro"
	"repro/internal/flatbuf"
)

// -update-format regenerates the golden fixtures under testdata/format/
// from the current code. Run it only when the format deliberately
// changes, and commit the new files — the whole point of the fixtures
// is that unintended byte changes fail TestFormatCompatGolden.
var updateFormat = flag.Bool("update-format", false, "regenerate testdata/format golden fixtures")

// fixtureMethods are the persistable methods the golden fixtures pin,
// covering every section family: interval labels + 3D segments
// (3dreach), labels + BFL bitsets + 2D R-tree (spareach-bfl), the
// SPA-Graph grid columns (georeach) and the composite container (auto).
var fixtureMethods = []struct {
	slug string
	m    rangereach.Method
}{
	{"3dreach", rangereach.ThreeDReach},
	{"spareach-bfl", rangereach.SpaReachBFL},
	{"georeach", rangereach.GeoReach},
	{"auto", rangereach.MethodAuto},
}

// fixtureOptions make the fixture builds deterministic: Auto's
// calibration microbenchmark is timing-dependent, so it is skipped and
// the coefficients stay at their documented defaults.
func fixtureOptions() []rangereach.Option {
	return []rangereach.Option{rangereach.WithAutoCalibration(-1, 0)}
}

func fixturePath(slug, version string) string {
	return filepath.Join("testdata", "format", slug+"-"+version+".idx")
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

// TestFormatCompatGolden loads the committed v1 and v2 fixture files
// and checks they still validate and answer the pinned queries. This is
// the compatibility contract: a change that breaks decoding of
// yesterday's files fails here, in CI, before it ships. With
// -update-format it instead rewrites the fixtures from the current
// builder.
func TestFormatCompatGolden(t *testing.T) {
	net := fuzzNet()
	if *updateFormat {
		if err := os.MkdirAll(filepath.Join("testdata", "format"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, fm := range fixtureMethods {
			idx, err := net.Build(fm.m, fixtureOptions()...)
			if err != nil {
				t.Fatalf("%s: %v", fm.slug, err)
			}
			var v1, v2 bytes.Buffer
			if err := idx.SaveV1(&v1); err != nil {
				t.Fatalf("%s: %v", fm.slug, err)
			}
			if err := idx.Save(&v2); err != nil {
				t.Fatalf("%s: %v", fm.slug, err)
			}
			if err := os.WriteFile(fixturePath(fm.slug, "v1"), v1.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(fixturePath(fm.slug, "v2"), v2.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: wrote v1 (%d bytes) and v2 (%d bytes)", fm.slug, v1.Len(), v2.Len())
		}
	}
	for _, fm := range fixtureMethods {
		for _, version := range []string{"v1", "v2"} {
			name := fm.slug + "-" + version
			t.Run(name, func(t *testing.T) {
				path := fixturePath(fm.slug, version)
				idx, err := net.LoadIndexFile(path)
				if err != nil {
					t.Fatalf("loading golden fixture %s: %v", path, err)
				}
				if idx.Method() != fm.m {
					t.Fatalf("fixture decoded as %v, want %v", idx.Method(), fm.m)
				}
				fixtureQueries(t, idx, name+"/decode")

				if version == "v2" {
					mapped, err := net.OpenMapped(path)
					if err != nil {
						t.Fatalf("mapping golden fixture %s: %v", path, err)
					}
					defer mapped.Close()
					if err := mapped.Validate(); err != nil {
						t.Fatalf("mapped fixture fails validation: %v", err)
					}
					fixtureQueries(t, mapped, name+"/mmap")
				}
			})
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
		idx, err := net.Build(fm.m, fixtureOptions()...)
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
// every persistable method, both SCC policies and the composite.
func TestOpenMappedParity(t *testing.T) {
	net := fuzzNet()
	dir := t.TempDir()
	configs := []struct {
		name string
		m    rangereach.Method
		opts []rangereach.Option
	}{
		{"3dreach", rangereach.ThreeDReach, nil},
		{"3dreach-mbr", rangereach.ThreeDReach, []rangereach.Option{rangereach.WithMBRPolicy()}},
		{"3dreach-rev", rangereach.ThreeDReachRev, nil},
		{"socreach", rangereach.SocReach, nil},
		{"spareach-bfl", rangereach.SpaReachBFL, nil},
		{"spareach-bfl-mbr", rangereach.SpaReachBFL, []rangereach.Option{rangereach.WithMBRPolicy()}},
		{"spareach-int", rangereach.SpaReachINT, nil},
		{"georeach", rangereach.GeoReach, nil},
		{"auto", rangereach.MethodAuto, fixtureOptions()},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			built, err := net.Build(c.m, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, c.name+".idx")
			if err := built.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			decoded, err := net.LoadIndexFile(path, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := net.OpenMapped(path, c.opts...)
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

// TestOpenMappedV1Rejected pins the targeted error for mapping a v1
// file: the message must name the actual problem (format v1) and the
// fix (LoadIndex / re-save), not a generic bad-magic complaint.
func TestOpenMappedV1Rejected(t *testing.T) {
	net := fuzzNet()
	idx, err := net.Build(rangereach.ThreeDReach)
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := idx.SaveV1(&v1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.idx")
	if err := os.WriteFile(path, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := net.LoadIndexFile(path); err != nil {
		t.Fatalf("v1 file no longer stream-loads: %v", err)
	}
	_, err = net.OpenMapped(path)
	if err == nil {
		t.Fatal("OpenMapped accepted a v1 file")
	}
	if !strings.Contains(err.Error(), "v1") {
		t.Errorf("v1 mapping error %q does not mention the format version", err)
	}
}

// TestFormatV2CorruptionMapped drives the mmap load path through the
// same systematic corruption the streaming path faces in
// TestLoadCorrupted: truncations at every boundary and a byte flip at
// every offset, each written to a real file and opened via OpenMapped.
// Every case must fail with a wrapped error or produce an index whose
// pinned queries can run — never a panic, even though the mapped path
// skips deep validation.
func TestFormatV2CorruptionMapped(t *testing.T) {
	net := fuzzNet()
	region := rangereach.NewRect(60, 55, 90, 95)
	dir := t.TempDir()
	for _, fm := range fixtureMethods {
		idx, err := net.Build(fm.m, fixtureOptions()...)
		if err != nil {
			t.Fatalf("%s: %v", fm.slug, err)
		}
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			t.Fatalf("%s: %v", fm.slug, err)
		}
		valid := buf.Bytes()
		path := filepath.Join(dir, "mutant.idx")

		open := func(name string, data []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s/%s: OpenMapped panicked: %v", fm.slug, name, r)
				}
			}()
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			mapped, err := net.OpenMapped(path)
			if err != nil {
				if !strings.Contains(err.Error(), ":") {
					t.Errorf("%s/%s: unwrapped error %q", fm.slug, name, err)
				}
				return
			}
			// Accepted corruption may answer wrongly but must not crash.
			mapped.RangeReach(0, region)
			mapped.RangeReach(2, region)
			_ = mapped.Close()
		}

		for cut := 0; cut < len(valid); cut += 1 {
			open(fmt.Sprintf("truncate@%d", cut), valid[:cut])
		}
		mutant := make([]byte, len(valid))
		for off := 0; off < len(valid); off++ {
			copy(mutant, valid)
			mutant[off] ^= 0x41
			open(fmt.Sprintf("flip@%d", off), mutant)
		}
		open("doubled", append(append([]byte(nil), valid...), valid...))
	}
}

// TestLoadRejectsOutOfOrderLabel crafts the one corruption the
// every-offset flips cannot: a v2 file, valid in every byte, in which
// two intervals of one vertex's label have changed places. 3DReach
// binary-searches the label, so the file would answer wrongly; both
// load paths must refuse it, the mapped one included, which walks the
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
	// the concatenated {lo, hi i32} intervals (DESIGN.md §17).
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

// savedBoth returns the v1 stream and the v2 image of a fresh index of
// method m over the fixture network, with the v2 root manifest (section
// kind 1; its first bytes are {method u8, policy u8, flags u16},
// DESIGN.md §17) aliasing the image so a test can edit it in place.
func savedBoth(t *testing.T, net *rangereach.Network, m rangereach.Method) (v1, v2, manifest []byte) {
	t.Helper()
	idx, err := net.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := idx.SaveV1(&b1); err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(&b2); err != nil {
		t.Fatal(err)
	}
	img, err := flatbuf.Open(b2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	manifest, ok := img.Section(0, 1)
	if !ok || len(manifest) < 4 {
		t.Fatal("the image has no root manifest")
	}
	return b1.Bytes(), b2.Bytes(), manifest
}

// TestFormatReservedMethodBytes pins method bytes 7 and 8 as reserved:
// they named SpaReach-Feline and SpaReach-GRAIL, which are gone, and a
// file carrying one must be a load error on every path — not a panic,
// and not an index of whatever method is later given the number.
func TestFormatReservedMethodBytes(t *testing.T) {
	net := fuzzNet()
	v1, v2, manifest := savedBoth(t, net, rangereach.ThreeDReach)
	path := filepath.Join(t.TempDir(), "reserved.idx")
	for _, b := range []byte{7, 8} {
		v1[5] = b // magic[4] | version | method
		manifest[0] = b
		for name, data := range map[string][]byte{"v1": v1, "v2": v2} {
			_, err := net.LoadIndex(bytes.NewReader(data))
			if err == nil || !strings.Contains(err.Error(), ":") {
				t.Errorf("LoadIndex, %s method byte %d: error %v, want a wrapped load error", name, b, err)
			}
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

// TestFormatSocReachReservedFlag pins bit 0 of SocReach's flags (the v1
// flags byte, the v2 manifest flags) as reserved and ignored: it once
// chose the structure the descendant scan ran over, never the answers,
// so a file that carries it still loads, validates and answers.
func TestFormatSocReachReservedFlag(t *testing.T) {
	net := fuzzNet()
	v1, v2, manifest := savedBoth(t, net, rangereach.SocReach)
	v1[7] |= 1 // magic[4] | version | method | policy | flags
	manifest[2] |= 1
	for name, data := range map[string][]byte{"v1": v1, "v2": v2} {
		idx, err := net.LoadIndex(bytes.NewReader(data)) // validates
		if err != nil {
			t.Fatalf("%s with the reserved bit set: %v", name, err)
		}
		if idx.Method() != rangereach.SocReach {
			t.Errorf("%s decoded as %v", name, idx.Method())
		}
		fixtureQueries(t, idx, name+"/reserved-bit")
	}
	path := filepath.Join(t.TempDir(), "socreach.idx")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := net.OpenMapped(path)
	if err != nil {
		t.Fatalf("mapping with the reserved bit set: %v", err)
	}
	defer mapped.Close()
	if err := mapped.Validate(); err != nil {
		t.Fatalf("mapped index with the reserved bit set fails validation: %v", err)
	}
	fixtureQueries(t, mapped, "mmap/reserved-bit")
}

// TestOpenMappedAllocs pins the O(1)-allocations property of the
// mapped load: opening a 4× larger index must not allocate
// meaningfully more than opening the small one, because every column
// overlays the mapped pages instead of being decoded into fresh
// slices. GeoReach is excluded by design — its grid cell-sets rehydrate
// into hash maps (DESIGN.md §17) — so the methods here are the ones the
// guarantee covers.
func TestOpenMappedAllocs(t *testing.T) {
	dir := t.TempDir()
	build := func(n int) (*rangereach.Network, string) {
		b := rangereach.NewNetworkBuilder(n)
		for v := 0; v+1 < n; v++ {
			b.AddEdge(v, v+1)
			if v%7 == 0 {
				b.AddEdge(v, (v*13+5)%n)
			}
			if v%3 == 0 {
				b.SetPoint(v, float64(v%100), float64((v*37)%100))
			}
		}
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		idx, err := net.Build(rangereach.ThreeDReach)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("alloc-%d.idx", n))
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
	netSmall, pathSmall := build(400)
	netBig, pathBig := build(1600)
	small := measure(netSmall, pathSmall)
	big := measure(netBig, pathBig)
	// The counts need not be exactly equal (map headers, error paths),
	// but they must not scale with the index: allow a fixed slack.
	if big > small+16 {
		t.Errorf("mapped open allocations scale with index size: %v at n=400, %v at n=1600", small, big)
	}
	t.Logf("mapped open: %.0f allocs at n=400, %.0f at n=1600", small, big)
}

// TestFormatLayoutPinned pins the saved bytes of the R-tree-backed
// images on a network whose trees have three and four levels; the
// committed fixtures pin the same thing on a network that fits one
// leaf. The hashes were recorded at commit 8e36155, where a pointer
// tree was flattened at save time, so they hold the bulk loader to that
// canonical BFS layout.
func TestFormatLayoutPinned(t *testing.T) {
	net := rangereach.GowallaLike(0.1, 7)
	mbr := []rangereach.Option{rangereach.WithMBRPolicy()}
	for _, c := range []struct {
		name string
		m    rangereach.Method
		opts []rangereach.Option
		want string
	}{
		{"3dreach", rangereach.ThreeDReach, nil, "1da6ef7d6e889b30f1003d1278dc6fec3483c549acddb23c1a6ea38bcfb7971f"},
		{"3dreach-mbr", rangereach.ThreeDReach, mbr, "d05cd452a8704a8745b0ae47abf0eb39ffc54714f029416e2ace98e967f9dab7"},
		{"3dreach-rev-mbr", rangereach.ThreeDReachRev, mbr, "4d44dec91a7d4e75ad2cf9803014aaf5d20f2145d2d61268dbbeb2162b1dced2"},
		{"spareach-int-mbr", rangereach.SpaReachINT, mbr, "e5201b50503f4088aacb706ca3903083d9f826df1cf786e906c1fe7f8801ade7"},
	} {
		idx, err := net.Build(c.m, c.opts...)
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

// TestFormatFanoutBuildSaveLoad: whatever fan-out a build accepts, the
// saved file loads. WithRTreeFanout(1<<21) used to build and save a file
// that LoadIndex and OpenMapped then rejected as implausible; builder and
// loader now share one range.
func TestFormatFanoutBuildSaveLoad(t *testing.T) {
	net := fuzzNet()
	for _, fanout := range []int{-1, 0, 1, 4, 16, 1 << 20, 1<<20 + 1, 1 << 21} {
		for _, m := range []rangereach.Method{rangereach.ThreeDReach, rangereach.ThreeDReachRev, rangereach.SpaReachINT} {
			name := fmt.Sprintf("%v/fanout=%d", m, fanout)
			idx, err := net.Build(m, rangereach.WithRTreeFanout(fanout))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			path := filepath.Join(t.TempDir(), "fanout.idx")
			if err := idx.SaveFile(path); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			loaded, err := net.LoadIndexFile(path)
			if err != nil {
				t.Fatalf("%s: load: %v", name, err)
			}
			fixtureQueries(t, loaded, name+"/decode")
			mapped, err := net.OpenMapped(path)
			if err != nil {
				t.Fatalf("%s: map: %v", name, err)
			}
			fixtureQueries(t, mapped, name+"/mmap")
			if err := mapped.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
