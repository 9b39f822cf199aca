package core

import (
	"bytes"
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

	persistable := []struct {
		method Method
		policy dataset.SCCPolicy
	}{
		{MethodThreeDReach, dataset.Replicate},
		{MethodThreeDReachRev, dataset.Replicate},
		{MethodSocReach, dataset.Replicate},
		{MethodSpaReachINT, dataset.Replicate},
		{MethodSpaReachINT, dataset.MBR},
		{MethodSpaReachBFL, dataset.Replicate},
		{MethodGeoReach, dataset.Replicate},
	}
	for _, tc := range persistable {
		res, err := BuildMethod(prep, tc.method, BuildOptions{Policy: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveEngine(&buf, res.Engine); err != nil {
			t.Fatalf("%v/%v: save: %v", tc.method, tc.policy, err)
		}
		loaded, err := LoadEngine(&buf, prep, BuildOptions{})
		if err != nil {
			t.Fatalf("%v/%v: load: %v", tc.method, tc.policy, err)
		}
		if loaded.Method != tc.method || loaded.Policy != tc.policy {
			t.Fatalf("%v/%v: header round trip lost metadata: %v/%v",
				tc.method, tc.policy, loaded.Method, loaded.Policy)
		}
		for q := 0; q < 40; q++ {
			v := rng.Intn(net.NumVertices())
			r := randomRegion(rng)
			want := truth.RangeReach(v, r)
			if got := loaded.Engine.RangeReach(v, r); got != want {
				t.Fatalf("%v/%v: loaded engine wrong at v=%d r=%v: got %v want %v",
					tc.method, tc.policy, v, r, got, want)
			}
		}
	}
}

func TestSaveEngineUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(611))
	prep := dataset.Prepare(randomNetwork(rng, 10, 5, false))
	var buf bytes.Buffer
	if err := SaveEngine(&buf, NewNaiveBFS(prep.Net)); err == nil {
		t.Error("naive save accepted")
	}
	if err := SaveEngine(&buf, NewSpaReachPLL(prep, SpaReachOptions{})); err == nil {
		t.Error("PLL save accepted")
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
			if _, err := LoadEngine(strings.NewReader(input), prep, BuildOptions{}); err == nil {
				t.Error("corrupt input accepted")
			}
		})
	}
}

func TestLoadEngineRejectsWrongNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(617))
	prepA := dataset.Prepare(randomNetwork(rng, 30, 20, false))
	prepB := dataset.Prepare(randomNetwork(rng, 10, 5, false))
	e := NewThreeDReach(prepA, ThreeDOptions{})
	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, prepB, BuildOptions{}); err == nil {
		t.Error("engine accepted against a different network")
	}
}
