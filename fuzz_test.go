package rangereach_test

import (
	"bytes"
	"os"
	"slices"
	"testing"

	rangereach "repro"
)

// fuzzNet builds the paper's running example without a testing.T, for
// seeding fuzz corpora from *testing.F.
func fuzzNet() *rangereach.Network { return buildFuzzNet(nil) }

// buildFuzzNet builds the running example with extra applied to the
// builder, when it is not nil, before Build.
func buildFuzzNet(extra func(*rangereach.NetworkBuilder)) *rangereach.Network {
	b := rangereach.NewNetworkBuilder(12)
	for _, e := range [][2]int{
		{0, 1}, {0, 3}, {0, 9},
		{1, 4}, {1, 11}, {1, 3},
		{2, 8}, {2, 10}, {2, 3},
		{4, 5}, {6, 8}, {8, 5}, {9, 6}, {9, 7}, {11, 7},
	} {
		b.AddEdge(e[0], e[1])
	}
	b.SetPoint(4, 70, 80).SetPoint(7, 80, 60).SetPoint(5, 10, 10).
		SetPoint(8, 20, 90).SetPoint(11, 40, 20)
	if extra != nil {
		extra(b)
	}
	net, err := b.Build()
	if err != nil {
		panic(err)
	}
	return net
}

// FuzzPersistRoundtrip throws arbitrary bytes at the binary index
// decoder. The invariant: LoadIndex returns a wrapped error or a fully
// validated index — it never panics and never accepts a structurally
// broken index. Seeds are valid saves of each persistable method plus
// truncated prefixes, so the seed-corpus CI run exercises every
// section decoder; the bare v1 magic and the two retired MBR-policy
// files, whole and halved, so the refusals are fuzzed; and the other
// layouts the loader reads, whole and halved. Every input is
// loaded over each network a seed was built on.
func FuzzPersistRoundtrip(f *testing.F) {
	nets := []*rangereach.Network{fuzzNet()}
	region := rangereach.NewRect(60, 55, 90, 95)
	for _, fm := range fixtureMethods {
		data := savedImage(f, nets[0], fm.m)
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:9])
	}
	f.Add([]byte(nil))
	f.Add([]byte("RRIX"))
	f.Add([]byte("RRX2"))
	for _, name := range []string{"3dreach-mbr-v2", "3dreach-rev-mbr-v2"} {
		data, err := os.ReadFile(retiredPath(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	for _, in := range layoutInputs(f, nets[0]) {
		f.Add(in.data)
		f.Add(in.data[:len(in.data)/2])
		if !slices.Contains(nets, in.net) {
			nets = append(nets, in.net)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, net := range nets {
			idx, err := net.LoadIndex(bytes.NewReader(data))
			if err != nil {
				continue
			}
			// An accepted index must be structurally sound and answer
			// queries without panicking.
			if err := idx.Validate(); err != nil {
				t.Fatalf("accepted index fails validation: %v", err)
			}
			idx.RangeReach(0, region)
			idx.RangeReach(2, region)
		}
	})
}

// FuzzRangeReachParity derives a small random geosocial network, a
// vertex and a query region from the fuzz input, builds every interval
// and spatial engine over it, and checks each answer against the
// NaiveBFS ground truth (and each index against the deep validators).
func FuzzRangeReachParity(f *testing.F) {
	f.Add([]byte{5, 1, 2, 0, 1, 1, 2, 2, 3, 3, 4, 0, 2, 20, 20, 80, 80})
	f.Add([]byte{9, 7, 0, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0, 10, 5, 90, 95})
	f.Add([]byte{3, 200, 50, 0, 1, 1, 2, 2, 0, 0, 0, 100, 100})
	f.Add([]byte{12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		n := 3 + int(data[0])%10
		b := rangereach.NewNetworkBuilder(n)
		// Geometry: every third control byte marks its vertex spatial.
		spatial := 0
		for v := 0; v < n && v+1 < len(data); v++ {
			c := data[v+1]
			if c%3 == 0 {
				b.SetPoint(v, float64(c%100), float64(data[(v+2)%len(data)]%100))
				spatial++
			}
		}
		if spatial == 0 {
			b.SetPoint(n-1, 50, 50)
		}
		// Edges (cycles welcome — the pipeline condenses SCCs).
		for i := n + 1; i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
		net, err := b.Build()
		if err != nil {
			t.Skip()
		}
		x1 := float64(data[1] % 100)
		y1 := float64(data[2] % 100)
		x2 := x1 + float64(data[3]%50)
		y2 := y1 + float64(data[4]%50)
		regions := []rangereach.Rect{
			rangereach.NewRect(x1, y1, x2, y2),
			rangereach.NewRect(0, 0, 100, 100),
		}

		naive := net.MustBuild(rangereach.Naive)
		methods := append([]rangereach.Method{rangereach.MethodAuto}, rangereach.Methods...)
		for _, m := range methods {
			idx, err := net.Build(m)
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			if err := idx.Validate(); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			for v := 0; v < n; v++ {
				for ri, r := range regions {
					want := naive.RangeReach(v, r)
					if got := idx.RangeReach(v, r); got != want {
						t.Errorf("%v: RangeReach(%d, region %d) = %v, want %v", m, v, ri, got, want)
					}
				}
			}
		}
	})
}
