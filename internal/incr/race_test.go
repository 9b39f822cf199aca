package incr

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// TestConcurrentQueriesDuringPatching exercises the snapshot contract
// under the race detector: one writer merges, splits, moves, folds,
// rebuilds and appends across page boundaries (the stream and network
// of TestSnapshotsSurviveLaterEpochs) while reader goroutines hammer
// previously published snapshots, which share pages with the writer.
// Every reader answer must match the BFS truth of the snapshot it
// queries.
func TestConcurrentQueriesDuringPatching(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	net := pagedNetwork(rng)
	prep := dataset.Prepare(net)
	x := New(prep, Options{OverlayMin: 8}) // fold aggressively mid-run
	m := newMirror(net)

	type published struct {
		snap   *Snapshot
		mirror *mirror
	}
	var cur atomic.Pointer[published]
	publish := func() {
		mc := &mirror{
			edges:   make(map[[2]int]bool, len(m.edges)),
			spatial: append([]bool(nil), m.spatial...),
			points:  append([]geom.Point(nil), m.points...),
		}
		for e := range m.edges {
			mc.edges[e] = true
		}
		cur.Store(&published{snap: x.Snapshot(), mirror: mc})
	}
	publish()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := cur.Load()
				v := rng.Intn(p.snap.NumVertices())
				r := randomRegion(rng)
				if got, want := p.snap.RangeReach(v, r), p.mirror.reach(v, r); got != want {
					select {
					case errs <- "snapshot answer diverged from its mirror":
					default:
					}
					return
				}
			}
		}(int64(100 + g))
	}

	for step := 0; step < 800; step++ {
		applyRandomOp(t, rng, x, m, nil)
		if step == 500 {
			x.fullRebuild()
		}
		if step%4 == 3 {
			publish()
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
