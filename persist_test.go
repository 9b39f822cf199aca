package rangereach_test

import (
	"bytes"
	"testing"

	rangereach "repro"
)

func TestIndexSaveLoad(t *testing.T) {
	net := figure1(t)
	region := rangereach.NewRect(60, 55, 90, 95)
	for _, m := range []rangereach.Method{
		rangereach.ThreeDReach, rangereach.ThreeDReachRev,
		rangereach.SocReach, rangereach.SpaReachBFL, rangereach.SpaReachINT,
		rangereach.GeoReach,
	} {
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

func TestSaveUnsupportedMethod(t *testing.T) {
	net := figure1(t)
	idx := net.MustBuild(rangereach.SpaReachPLL)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err == nil {
		t.Error("PLL save accepted")
	}
	naive := net.MustBuild(rangereach.Naive)
	if err := naive.Save(&buf); err == nil {
		t.Error("naive save accepted")
	}
}
