package rangereach_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	rangereach "repro"
)

func TestIndexSaveLoad(t *testing.T) {
	net := figure1(t)
	region := rangereach.NewRect(60, 55, 90, 95)
	for _, m := range []rangereach.Method{rangereach.ThreeDReach, rangereach.GeoReach} {
		idx := net.MustBuild(m)
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		loaded, err := net.LoadIndex(&buf)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if loaded.Method() != m {
			t.Errorf("method changed: %v -> %v", m, loaded.Method())
		}
		if !loaded.RangeReach(0, region) || loaded.RangeReach(2, region) {
			t.Errorf("%v: loaded index wrong answers", m)
		}
	}
}

func TestIndexSaveLoadFile(t *testing.T) {
	net := figure1(t)
	idx := net.MustBuild(rangereach.ThreeDReach)
	path := t.TempDir() + "/index.rrx"
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := net.LoadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.RangeReach(0, rangereach.NewRect(60, 55, 90, 95)) {
		t.Error("loaded index wrong")
	}
	if _, err := net.LoadIndexFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSaveUnsupportedMethod: every method but 3DReach and GeoReach is
// refused by Save with ErrNotPersistable, and SaveFile leaves no file,
// temporary or final, behind.
func TestSaveUnsupportedMethod(t *testing.T) {
	net := figure1(t)
	dir := t.TempDir()
	for _, name := range rangereach.MethodNames() {
		m, _ := rangereach.ParseMethod(name)
		if m.Persistable() {
			continue
		}
		idx := net.MustBuild(m)
		var buf bytes.Buffer
		if err := idx.Save(&buf); !errors.Is(err, rangereach.ErrNotPersistable) || buf.Len() != 0 {
			t.Errorf("%v: Save returned %v and wrote %d bytes, want ErrNotPersistable and none", m, err, buf.Len())
		}
		if err := idx.SaveFile(filepath.Join(dir, name+".idx")); !errors.Is(err, rangereach.ErrNotPersistable) {
			t.Errorf("%v: SaveFile returned %v, want ErrNotPersistable", m, err)
		}
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("SaveFile of unsaveable methods left %v (%v)", left, err)
	}
}
