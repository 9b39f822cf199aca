package incr

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
)

// pagedNetwork is a random network whose columns span several pages,
// sized so that the first few vertices a stream adds cross a page
// boundary and the rest grow the new last page.
func pagedNetwork(rng *rand.Rand) *dataset.Network {
	return randomNetwork(rng, 2*pageSize-8, 3*pageSize)
}

// TestSnapshotsSurviveLaterEpochs holds every snapshot of a 200-epoch
// stream — merges, splits, overlay folds, a forced full rebuild, vertex
// appends across a page boundary and into the last page — and checks
// each, at intervals and at the end, against the oracle answers recorded
// when it was taken: whatever the writer copies or shares at publish,
// no later write may show through.
func TestSnapshotsSurviveLaterEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := pagedNetwork(rng)
	x := New(dataset.Prepare(net), Options{overlayMin: 32})
	m := newMirror(net)

	type held struct {
		snap   *Snapshot
		vertex []int
		region []geom.Rect
		want   []bool
	}
	var all []held
	hold := func() {
		h := held{snap: x.Snapshot()}
		for i := 0; i < 8; i++ {
			v, r := rng.Intn(len(m.spatial)), randomRegion(rng)
			h.vertex, h.region, h.want = append(h.vertex, v), append(h.region, r), append(h.want, m.reach(v, r))
		}
		all = append(all, h)
	}
	recheck := func(epoch int) {
		t.Helper()
		for taken, h := range all {
			for i, want := range h.want {
				if got := h.snap.RangeReach(h.vertex[i], h.region[i]); got != want {
					t.Fatalf("after epoch %d: snapshot %d answers RangeReach(%d, %v) = %v, at its capture the oracle said %v",
						epoch, taken, h.vertex[i], h.region[i], got, want)
				}
			}
		}
	}

	hold()
	startPages := len(x.comp.pages)
	for epoch := 0; epoch < 200; epoch++ {
		for i := 0; i < 4; i++ {
			applyRandomOp(t, rng, x, m, nil)
		}
		if epoch == 120 {
			x.fullRebuild()
		}
		hold()
		if epoch%40 == 39 {
			recheck(epoch)
		}
	}
	recheck(200)
	for taken, h := range all {
		if err := h.snap.Validate(); err != nil {
			t.Fatalf("snapshot %d no longer validates: %v", taken, err)
		}
	}
	s := x.Stats()
	if s.Merges == 0 || s.Splits == 0 || s.Folds == 0 || s.FullRebuilds == 0 {
		t.Errorf("the stream should merge, split, fold and rebuild: %+v", s)
	}
	if len(x.comp.pages) == startPages || x.n&pageMask < 16 {
		t.Errorf("the stream should append across a page boundary and on into the new page: %d vertices, %d pages at the start",
			x.n, startPages)
	}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPublishCostIndependentOfVertexCount is the count guard on the
// publish path: after the same five label writes, Snapshot allocates
// the same number of bytes on a 4k-vertex and on a 64k-vertex index,
// and under 1 KiB — it shares the columns, the tiles, the overlay and
// its cell mapping, it copies none of them — and the writes
// themselves differ by less than the page tables, the only per-vertex
// thing a written column still copies (8 bytes per 256 entries). The
// byte counts are process-wide, so a background allocation (the
// runtime's, or another test's) can add to one; each measurement is
// the minimum over five fresh indexes, which no such stray can raise.
func TestPublishCostIndependentOfVertexCount(t *testing.T) {
	const touched, repetitions = 5, 5
	measure := func(n int) (writes, publish uint64) {
		writes, publish = math.MaxUint64, math.MaxUint64
		for range repetitions {
			w, p := measureOnce(t, n, touched)
			writes, publish = min(writes, w), min(publish, p)
		}
		return writes, publish
	}
	smallWrites, smallPublish := measure(4 << 10)
	largeWrites, largePublish := measure(64 << 10)
	if smallPublish != largePublish {
		t.Errorf("Snapshot allocated %d bytes on the 4k-vertex index and %d on the 64k-vertex one; want equal", smallPublish, largePublish)
	}
	if largePublish >= 1<<10 {
		t.Errorf("Snapshot allocated %d bytes; want under 1 KiB: a snapshot holds headers, not copies", largePublish)
	}
	const columns = 4
	tables := uint64(64<<10-4<<10) / pageSize * 8 * columns
	if largeWrites < smallWrites || largeWrites-smallWrites > tables {
		t.Errorf("%d label writes allocated %d bytes on the 4k-vertex index and %d on the 64k-vertex one; want a difference within the page tables' %d",
			touched, smallWrites, largeWrites, tables)
	}
}

// measureOnce builds a fresh n-vertex index and reports the bytes that
// touched label writes, each on its own page, and then one Snapshot
// allocate.
func measureOnce(t *testing.T, n, touched int) (writes, publish uint64) {
	// n/2 users, n/2 venues, no edges: every vertex its own component.
	spatial := make([]bool, n)
	points := make([]geom.Point, n)
	for v := n / 2; v < n; v++ {
		spatial[v] = true
		points[v] = geom.Pt(float64(v%100), float64(v/100%100))
	}
	x := New(dataset.Prepare(&dataset.Network{
		Name: "flat", Graph: graph.FromEdges(n, nil), Spatial: spatial, Points: points,
	}), Options{})
	// One write up front sizes the writer's scratch; after the
	// snapshot every page is shared.
	if err := x.AddEdge(n/2-1, n-1); err != nil {
		t.Fatal(err)
	}
	x.Snapshot()
	writes = allocatedBytes(func() {
		for i := 0; i < touched; i++ {
			// More than a page apart, so five pages of labels are copied.
			if err := x.AddEdge(i*(pageSize+44), n/2+i*(pageSize+44)); err != nil {
				t.Fatal(err)
			}
		}
	})
	publish = allocatedBytes(func() { x.Snapshot() })
	return writes, publish
}

// TestMaxLabelIntervalsMatchesWalk pins Stats' page-wise maximum to the
// brute-force walk over every label as Stats leaves them, after every op
// of a stream that fragments labels, retires components and rebuilds.
func TestMaxLabelIntervalsMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	net := pagedNetwork(rng)
	x := New(dataset.Prepare(net), Options{})
	m := newMirror(net)
	widest := 0
	for step := 0; step < 600; step++ {
		applyRandomOp(t, rng, x, m, nil)
		switch {
		case step%7 == 0:
			x.Snapshot() // flushes deferred relabels
		case step == 400:
			x.fullRebuild()
		}
		got := x.Stats().MaxLabelIntervals // readies the labels, as a read does
		want := 0
		for c := 0; c < x.labels.len(); c++ {
			want = max(want, len(x.labels.at(int32(c))))
		}
		if got != want {
			t.Fatalf("step %d: MaxLabelIntervals = %d, the walk over all labels says %d", step, got, want)
		}
		widest = max(widest, want)
	}
	if widest < 4 {
		t.Errorf("the stream never fragmented a label past %d intervals; the test is vacuous", widest)
	}
}
