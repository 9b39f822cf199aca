package bench

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// cyclicSpatialNetwork is a random network of rings with chords in
// which half the vertices carry a point, so its components hold several
// points each: the case where an MBR differs from its members.
func cyclicSpatialNetwork(rng *rand.Rand, n int) *dataset.Network {
	b := graph.NewBuilder(n)
	for start := 0; start+3 < n; start += 3 + rng.Intn(3) {
		size := min(2+rng.Intn(3), n-start)
		for j := 0; j < size; j++ {
			b.AddEdge(start+j, start+(j+1)%size)
		}
	}
	for i := 0; i < 2*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddEdge(u, v)
		}
	}
	net := &dataset.Network{Name: "cyclic", Graph: b.Build(), Spatial: make([]bool, n), Points: make([]geom.Point, n)}
	for v := range n {
		if rng.Float64() < 0.5 {
			net.Spatial[v] = true
			net.Points[v] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
	}
	return net
}

// TestMBRArmAgreesWithNaive checks the MBR arm over each reach index
// against the BFS ground truth on random cyclic networks whose
// components hold several points, and on a preset whose users carry
// points. Its index must account bytes for both parts.
func TestMBRArmAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	var nets []*dataset.Network
	for range 12 {
		nets = append(nets, cyclicSpatialNetwork(rng, 5+rng.Intn(40)))
	}
	nets = append(nets, dataset.WithUserPoints(dataset.GowallaLike(0.02, 3), 0.5, 3))
	for i, net := range nets {
		prep := dataset.Prepare(net)
		truth := core.NewNaiveBFS(net)
		space := net.Space()
		for _, m := range []core.Method{core.MethodSpaReachBFL, core.MethodSpaReachINT} {
			arm, _ := buildMBRArm(prep, mbrReach[m], 2)
			if arm.MemoryBytes() <= arm.reach.MemoryBytes() {
				t.Errorf("net %d %v: arm bytes %d do not count its tree", i, m, arm.MemoryBytes())
			}
			for range 60 {
				x := space.Min.X + rng.Float64()*space.Width()
				y := space.Min.Y + rng.Float64()*space.Height()
				side := rng.Float64() * space.Width() / 3
				r := geom.NewRect(x, y, x+side, y+side)
				v := rng.Intn(net.NumVertices())
				if got, want := arm.RangeReach(v, r), truth.RangeReach(v, r); got != want {
					t.Fatalf("net %d %v: MBR arm (%d, %v) = %v, want %v", i, m, v, r, got, want)
				}
			}
		}
	}
}
