package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestEngineSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	net := randomNetwork(rng, 40, 25, true)
	prep := dataset.Prepare(net)
	truth := NewNaiveBFS(net)

	for _, m := range []Method{MethodThreeDReach, MethodGeoReach} {
		res, err := BuildMethod(prep, m, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveEngine(&buf, res.Engine); err != nil {
			t.Fatalf("%v: save: %v", m, err)
		}
		loaded, err := LoadEngine(&buf, prep)
		if err != nil {
			t.Fatalf("%v: load: %v", m, err)
		}
		if loaded.Method != m {
			t.Fatalf("%v: header round trip lost the method: %v", m, loaded.Method)
		}
		for q := 0; q < 40; q++ {
			v := rng.Intn(net.NumVertices())
			r := randomRegion(rng)
			want := truth.RangeReach(v, r)
			if got := loaded.Engine.RangeReach(v, r); got != want {
				t.Fatalf("%v: loaded engine wrong at v=%d r=%v: got %v want %v", m, v, r, got, want)
			}
		}
	}
}

// TestSaveEngineUnsupported: every engine but 3DReach and GeoReach is
// refused with ErrNotPersistable before a byte is written.
func TestSaveEngineUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(611))
	prep := dataset.Prepare(randomNetwork(rng, 10, 5, false))
	var buf bytes.Buffer
	if err := SaveEngine(&buf, NewNaiveBFS(prep.Net)); err == nil {
		t.Error("naive save accepted")
	}
	for _, m := range []Method{MethodThreeDReachRev, MethodSocReach, MethodSpaReachBFL, MethodSpaReachINT, MethodAuto} {
		res, err := BuildMethod(prep, m, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveEngine(&buf, res.Engine); !errors.Is(err, ErrNotPersistable) || buf.Len() != 0 {
			t.Errorf("%v: save returned %v and wrote %d bytes, want ErrNotPersistable and none", m, err, buf.Len())
		}
	}
}

func TestLoadEngineRejectsCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(613))
	prep := dataset.Prepare(randomNetwork(rng, 10, 5, false))

	cases := map[string]string{
		"empty":     "",
		"bad-magic": "XXXXxxxxxxxxxxxxx",
		"truncated": "RRIX\x01\x04\x00", // header only, no payload
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadEngine(strings.NewReader(input), prep); err == nil {
				t.Error("corrupt input accepted")
			}
		})
	}
}

func TestLoadEngineRejectsWrongNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(617))
	prepA := dataset.Prepare(randomNetwork(rng, 30, 20, false))
	prepB := dataset.Prepare(randomNetwork(rng, 10, 5, false))
	e := NewThreeDReach(prepA, BuildOptions{})
	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, prepB); err == nil {
		t.Error("engine accepted against a different network")
	}
}
