package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	rangereach "repro"
	"repro/internal/flatbuf"
)

// asMainEnv, when set, makes the test binary run rrserve's main instead
// of its tests, so TestCheckRefusesCorruptIndex drives the real flag
// handling and exit paths.
const asMainEnv = "RRSERVE_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCheckRefusesCorruptIndex serves, with -load-index -mmap -check, a
// 3DReach file that OpenMapped accepts but Validate refuses: the first
// point of the first tile cell moved past the cell's max x. rrserve must
// exit 1 naming the failed validation. The undamaged file passes the
// check. Both runs get an -addr with no port, so nothing is ever
// listened on: a run that got past -check exits 1 at the listen.
func TestCheckRefusesCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	net := rangereach.GowallaLike(0.02, 1)
	netPath := filepath.Join(dir, "net.gsn")
	f, err := os.Create(netPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := net.Build(rangereach.ThreeDReach)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.idx")
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := flatbuf.Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Root engine, section kinds 21 and 23: the cells' {min x, min y,
	// max x, max y} f64 bounds and the points' f64 x (DESIGN.md §16).
	// The sections alias the image's bytes.
	cellMBR, ok1 := img.Section(0, 21)
	xs, ok2 := img.Section(0, 23)
	if !ok1 || !ok2 {
		t.Fatal("the 3DReach image has no point tiles")
	}
	maxX := math.Float64frombits(binary.LittleEndian.Uint64(cellMBR[16:]))
	binary.LittleEndian.PutUint64(xs, math.Float64bits(maxX+1))
	bad := filepath.Join(dir, "bad.idx")
	if err := os.WriteFile(bad, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := net.OpenMapped(bad)
	if err != nil {
		t.Fatalf("OpenMapped refused the damaged file, so it cannot test -check: %v", err)
	}
	_ = mapped.Close()

	for _, c := range []struct {
		path, want, never string
	}{
		{bad, "failed validation", "invariants validated"},
		{good, "invariants validated", "failed validation"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0],
			"-net", netPath, "-load-index", c.path, "-mmap", "-check", "-addr", "no-port", "-log", "off")
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: rrserve exited with %v, want status 1; stderr:\n%s", filepath.Base(c.path), err, &stderr)
		}
		if out := stderr.String(); !strings.Contains(out, c.want) || strings.Contains(out, c.never) {
			t.Errorf("%s: stderr %q, want %q and not %q", filepath.Base(c.path), out, c.want, c.never)
		}
	}
}
