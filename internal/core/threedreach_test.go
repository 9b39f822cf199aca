package core

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/labeling"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// fragmentedCase is a 3DReach engine over a yelp-like network — the
// regime whose post-keyed labels run to dozens of intervals — as built,
// and as opened from its own saved file over mapped pages. The seed is
// one whose post-order interleaves venues with users, so that many of a
// post-keyed label's intervals reach into the 3D index (the cost guard
// checks it). Each case comes keyed both ways: by spatial rank, as
// NewThreeDReach builds it, and by post, as files written before ranks
// key it.
type fragmentedCase struct {
	name          string
	prep          *dataset.Prepared
	posts         bool
	built, mapped *ThreeDReach
}

// fragmentedCases covers the two branches of ThreeDReach.witness:
// points and extended geometries.
func fragmentedCases(t *testing.T) []fragmentedCase {
	t.Helper()
	points := dataset.Prepare(dataset.YelpLike(0.5, 9))
	extents := dataset.Prepare(withExtents(rand.New(rand.NewSource(4)), dataset.YelpLike(0.5, 9)))
	var cases []fragmentedCase
	for _, posts := range []bool{false, true} {
		keys := "/ranks"
		if posts {
			keys = "/posts"
		}
		cases = append(cases,
			fragmentedCase{name: "points" + keys, prep: points, posts: posts},
			fragmentedCase{name: "extents" + keys, prep: extents, posts: posts})
	}
	for i := range cases {
		c := &cases[i]
		if c.posts {
			c.built = NewThreeDReachWithLabeling(c.prep, labeling.Build(c.prep.DAG, labeling.Options{}), ThreeDOptions{})
		} else {
			c.built = NewThreeDReach(c.prep, ThreeDOptions{})
		}
		path := filepath.Join(t.TempDir(), strings.ReplaceAll(c.name, "/", "-")+".idx")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveEngine(f, c.built); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		opened, closer, err := OpenMappedEngine(path, c.prep, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = closer.Close() })
		c.mapped = opened.Engine.(*ThreeDReach)
	}
	return cases
}

// fragmentedQueries draws n queries whose vertex has a label of at
// least minLabel intervals, over small and large regions.
func fragmentedQueries(rng *rand.Rand, e *ThreeDReach, n, minLabel int) (vs []int, rs []geom.Rect) {
	net := e.prep.Net
	space := net.Space()
	w, h := space.Max.X-space.Min.X, space.Max.Y-space.Min.Y
	for len(vs) < n {
		v := rng.Intn(net.NumVertices())
		if len(e.l.Labels[e.prep.CompOf(v)]) < minLabel {
			continue
		}
		side := math.Sqrt([]float64{0.0005, 0.01, 0.05, 0.20}[len(vs)%4])
		x := space.Min.X + rng.Float64()*w*(1-side)
		y := space.Min.Y + rng.Float64()*h*(1-side)
		vs = append(vs, v)
		rs = append(rs, geom.NewRect(x, y, x+side*w, y+side*h))
	}
	return vs, rs
}

// TestStaticFragmentedParity checks the label-pruned search against BFS
// on every branch, on the built tree and on the mapped one, whose trace
// counters must also agree query by query.
func TestStaticFragmentedParity(t *testing.T) {
	for _, c := range fragmentedCases(t) {
		truth := NewNaiveBFS(c.prep.Net)
		vs, rs := fragmentedQueries(rand.New(rand.NewSource(11)), c.built, 400, 2)
		pos := 0
		for i, v := range vs {
			want := truth.RangeReach(v, rs[i])
			if want {
				pos++
			}
			var bs, ms trace.Span
			if got := c.built.RangeReachTraced(v, rs[i], &bs); got != want {
				t.Fatalf("%s: built 3DReach(%d, %v) = %v, BFS says %v", c.name, v, rs[i], got, want)
			}
			if got := c.mapped.RangeReachTraced(v, rs[i], &ms); got != want {
				t.Fatalf("%s: mapped 3DReach(%d, %v) = %v, BFS says %v", c.name, v, rs[i], got, want)
			}
			if bs.Counters != ms.Counters {
				t.Fatalf("%s: query (%d, %v) counts %+v built, %+v mapped", c.name, v, rs[i], bs.Counters, ms.Counters)
			}
		}
		if pos < 40 || pos > 360 {
			t.Errorf("%s: lopsided draw, %d of %d queries positive", c.name, pos, len(vs))
		}
	}
}

// TestStaticProbeCostIndependentOfLabelFragmentation is the count-based
// guard on the static read path: however many intervals the label has,
// a query expands each node at most once and only where its rectangle
// meets the region. The bound is the label-blind search of the region,
// which expands a superset of the union of what the per-interval cuboid
// searches do; on a miss the paper's loop of cuboid searches, run here
// as the reference, is a second bound. That loop expands the root once
// per interval reaching into the index, so it breaks the first bound on
// many of the drawn queries. The counts repeat exactly. This covers the
// box trees over post-keyed labels, the regime of long labels (keyed by
// rank, no label of this network reaches 16 intervals); the point
// tiles' guard is internal/tiles' TestAnyCostIndependentOfLabel.
func TestStaticProbeCostIndependentOfLabelFragmentation(t *testing.T) {
	for _, c := range fragmentedCases(t) {
		tree := c.built.boxes
		if tree == nil || !c.posts {
			continue
		}
		vs, rs := fragmentedQueries(rand.New(rand.NewSource(12)), c.built, 200, 16)
		loopBreaks := 0
		for i, v := range vs {
			label := c.built.l.Labels[c.prep.CompOf(v)]
			var blind, loop trace.Span
			tree.SearchTraced(geom.Box3FromRect(rs[i], math.Inf(-1), math.Inf(1)), &blind, func(rtree.Entry[geom.Box3]) bool { return true })
			for _, iv := range label {
				tree.SearchTraced(geom.Box3FromRect(rs[i], float64(iv.Lo), float64(iv.Hi)), &loop, func(rtree.Entry[geom.Box3]) bool { return true })
			}
			if !c.built.RangeReach(v, rs[i]) && loop.IndexNodes > blind.IndexNodes {
				loopBreaks++
			}
			for _, e := range []*ThreeDReach{c.built, c.mapped} {
				var sp trace.Span
				hit := e.RangeReachTraced(v, rs[i], &sp)
				if sp.IndexNodes == 0 || sp.IndexNodes > blind.IndexNodes || sp.IndexLeaves > blind.IndexLeaves || sp.IndexEntries > blind.IndexEntries {
					t.Fatalf("%s: query (%d, %v) with %d intervals expanded %d nodes + %d leaves and tested %d entries, the label-blind search of the region %d + %d and %d",
						c.name, v, rs[i], len(label), sp.IndexNodes, sp.IndexLeaves, sp.IndexEntries, blind.IndexNodes, blind.IndexLeaves, blind.IndexEntries)
				}
				if !hit && (sp.IndexNodes > loop.IndexNodes || sp.IndexLeaves > loop.IndexLeaves || sp.IndexEntries > loop.IndexEntries) {
					t.Fatalf("%s: miss (%d, %v) expanded %d nodes + %d leaves and tested %d entries, the per-interval searches together %d + %d and %d",
						c.name, v, rs[i], sp.IndexNodes, sp.IndexLeaves, sp.IndexEntries, loop.IndexNodes, loop.IndexLeaves, loop.IndexEntries)
				}
				if sp.Labels != int64(len(label)) {
					t.Fatalf("%s: Labels = %d, want the label's %d intervals", c.name, sp.Labels, len(label))
				}
			}
		}
		if loopBreaks < len(vs)/8 {
			t.Errorf("%s: on a miss the per-interval loop breaks the bound on %d of %d queries; the guard is close to vacuous", c.name, loopBreaks, len(vs))
		}
	}
}

// TestStaticRangeReachDoesNotAllocate covers the untraced read path of
// every branch on the built and the mapped index: the single cuboid of a one-interval label
// and the label-pruned traversal of a fragmented one (16 intervals and
// more keyed by post, 2 and more keyed by rank).
func TestStaticRangeReachDoesNotAllocate(t *testing.T) {
	for _, c := range fragmentedCases(t) {
		long := 2
		if c.posts {
			long = 16
		}
		for _, minLabel := range []int{1, long} {
			vs, rs := fragmentedQueries(rand.New(rand.NewSource(13)), c.built, 32, minLabel)
			if minLabel == 1 {
				// Venues are sinks: their label is their own post.
				for i := range vs {
					for !c.prep.Net.Spatial[vs[i]] {
						vs[i] = (vs[i] + 1) % c.prep.Net.NumVertices()
					}
				}
			}
			for name, e := range map[string]*ThreeDReach{"built": c.built, "mapped": c.mapped} {
				i := 0
				allocs := testing.AllocsPerRun(len(vs), func() {
					e.RangeReach(vs[i%len(vs)], rs[i%len(vs)])
					i++
				})
				if allocs != 0 {
					t.Errorf("%s, %s, labels of at least %d intervals: %v allocs per query, want 0", c.name, name, minLabel, allocs)
				}
			}
		}
	}
}

// TestThreeDReachBackendsAgree checks 3DReach's two spatial indexes —
// the point tiles of a point-only network and the box R-tree of one
// with extents — against BFS on random networks, cyclic and acyclic,
// some with more venues than one tile holds.
func TestThreeDReachBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	boxed := 0
	for trial := 0; trial < 12; trial++ {
		net := randomNetwork(rng, 5+rng.Intn(25), 2+rng.Intn(20)+trial%3*40, trial%2 == 0)
		withExt := *net
		engines := []*ThreeDReach{
			NewThreeDReach(dataset.Prepare(net), ThreeDOptions{}),
			NewThreeDReach(dataset.Prepare(withExtents(rng, &withExt)), ThreeDOptions{}),
		}
		if engines[1].boxes != nil {
			boxed++
		}
		for q := 0; q < 30; q++ {
			v := rng.Intn(net.NumVertices())
			r := randomRegion(rng)
			for i, e := range engines {
				want := NewNaiveBFS(e.prep.Net).RangeReach(v, r)
				if got := e.RangeReach(v, r); got != want {
					t.Fatalf("trial %d engine %d: RangeReach(%d, %v) = %v, want %v", trial, i, v, r, got, want)
				}
			}
		}
	}
	if boxed < 6 {
		t.Errorf("only %d of 12 trials built the box tree", boxed)
	}
}

// TestThreeDReachIndexPerGeometry pins which index 3DReach builds: the
// point tiles over a point-only network, and the exact boxes in the
// R-tree over one with extended geometries.
func TestThreeDReachIndexPerGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	points := dataset.Prepare(spatialCycleNetwork(rng, 40))
	extents := dataset.Prepare(withExtents(rng, spatialCycleNetwork(rng, 40)))
	for _, c := range []struct {
		name  string
		prep  *dataset.Prepared
		tiles bool
	}{
		{"points", points, true},
		{"extents", extents, false},
	} {
		e := NewThreeDReach(c.prep, ThreeDOptions{})
		if (e.points != nil) != c.tiles || (e.boxes != nil) == c.tiles {
			t.Errorf("%s: tiles %v, box tree %v", c.name, e.points != nil, e.boxes != nil)
		}
		truth := NewNaiveBFS(c.prep.Net)
		for q := 0; q < 30; q++ {
			v := rng.Intn(c.prep.Net.NumVertices())
			r := randomRegion(rng)
			if e.RangeReach(v, r) != truth.RangeReach(v, r) {
				t.Fatalf("%s: wrong answer at v=%d", c.name, v)
			}
		}
	}
}
