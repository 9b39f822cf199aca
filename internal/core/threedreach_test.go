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
	"repro/internal/intervals"
	"repro/internal/labeling"
	"repro/internal/tiles"
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

// fragmentedCases covers the tiles' two layouts: points, and extended
// geometries with their max corners.
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
			c.built = NewThreeDReachWithLabeling(c.prep, labeling.Build(c.prep.DAG, labeling.Options{}), BuildOptions{})
		} else {
			c.built = NewThreeDReach(c.prep, BuildOptions{})
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
		opened, closer, err := OpenMappedEngine(path, c.prep)
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
		if len(e.l.Label(int(e.prep.CompOf(v)))) < minLabel {
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

// blindWalk counts what the label-blind walk of r visits in t: the
// slabs and cells r meets, and the entries of the cells it cuts.
func blindWalk(t *tiles.Tiles, r geom.Rect) (sp trace.Span) {
	c := t.Columns()
	for s := 0; s+1 < len(c.SlabCells); s++ {
		if c.SlabX[2*s+1] < r.Min.X || c.SlabX[2*s] > r.Max.X {
			continue
		}
		sp.IncNode()
		for cell := c.SlabCells[s]; cell < c.SlabCells[s+1]; cell++ {
			box := geom.NewRect(c.CellMBR[4*cell], c.CellMBR[4*cell+1], c.CellMBR[4*cell+2], c.CellMBR[4*cell+3])
			if box.Intersects(r) {
				sp.IncLeaf()
				if !r.ContainsRect(box) {
					sp.AddEntries(int(c.CellPoints[cell+1] - c.CellPoints[cell]))
				}
			}
		}
	}
	return sp
}

// TestStaticProbeCostIndependentOfLabelFragmentation is the count-based
// guard on the static read path: however many intervals the label has,
// a query visits each slab and cell at most once and only where its
// bounds meet the region. The bound is the label-blind walk of the
// region (blindWalk); on a miss the paper's loop of cuboid queries, one
// walk per interval, run here as the reference, is a second bound. That
// loop visits the region's slabs once per interval, so it breaks the
// first bound on many of the drawn queries. The counts repeat exactly.
// This covers post-keyed labels, the regime of long labels (keyed by
// rank, no label of this network reaches 16 intervals), over points and
// over extents; the tiles' own guard is internal/tiles'
// TestAnyCostIndependentOfLabel.
func TestStaticProbeCostIndependentOfLabelFragmentation(t *testing.T) {
	for _, c := range fragmentedCases(t) {
		if !c.posts {
			continue
		}
		vs, rs := fragmentedQueries(rand.New(rand.NewSource(12)), c.built, 200, 16)
		loopBreaks := 0
		for i, v := range vs {
			label := c.built.l.Label(int(c.prep.CompOf(v)))
			blind := blindWalk(c.built.tiles, rs[i])
			var loop trace.Span
			for _, iv := range label {
				c.built.tiles.Any(rs[i], intervals.Set{iv}, nil, &loop)
			}
			if !c.built.RangeReach(v, rs[i]) && loop.IndexNodes > blind.IndexNodes {
				loopBreaks++
			}
			for _, e := range []*ThreeDReach{c.built, c.mapped} {
				var sp trace.Span
				hit := e.RangeReachTraced(v, rs[i], &sp)
				if sp.IndexNodes > blind.IndexNodes || sp.IndexLeaves > blind.IndexLeaves || sp.IndexEntries > blind.IndexEntries {
					t.Fatalf("%s: query (%d, %v) with %d intervals visited %d slabs + %d cells and tested %d entries, the label-blind walk of the region %d + %d and %d",
						c.name, v, rs[i], len(label), sp.IndexNodes, sp.IndexLeaves, sp.IndexEntries, blind.IndexNodes, blind.IndexLeaves, blind.IndexEntries)
				}
				if !hit && (sp.IndexNodes > loop.IndexNodes || sp.IndexLeaves > loop.IndexLeaves || sp.IndexEntries > loop.IndexEntries) {
					t.Fatalf("%s: miss (%d, %v) visited %d slabs + %d cells and tested %d entries, the per-interval walks together %d + %d and %d",
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

// TestThreeDReachRevMatchesBFSAndDoesNotAllocate checks 3DReach-Rev's
// one walk of the tiles against BFS on the giant-SCC preset, over points
// and with extents, on square regions of lib-query's four shares (0.05 %
// to 20 % of the space), and that the walk, its label and its filter
// allocate nothing.
func TestThreeDReachRevMatchesBFSAndDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, net := range []*dataset.Network{dataset.GowallaLike(0.05, 1), withExtents(rng, dataset.GowallaLike(0.05, 1))} {
		e, truth := NewThreeDReachRev(dataset.Prepare(net), BuildOptions{}), NewNaiveBFS(net)
		sp := net.Space()
		w, h := sp.Max.X-sp.Min.X, sp.Max.Y-sp.Min.Y
		vs, rs := make([]int, 200), make([]geom.Rect, 200)
		positives := 0
		for i := range vs {
			side := math.Sqrt([]float64{0.0005, 0.01, 0.05, 0.20}[i%4])
			x, y := sp.Min.X+rng.Float64()*w*(1-side), sp.Min.Y+rng.Float64()*h*(1-side)
			vs[i], rs[i] = rng.Intn(net.NumVertices()), geom.NewRect(x, y, x+side*w, y+side*h)
			want := truth.RangeReach(vs[i], rs[i])
			if got := e.RangeReach(vs[i], rs[i]); got != want {
				t.Fatalf("extents %v: RangeReach(%d, %v) = %v, want %v", net.HasExtents(), vs[i], rs[i], got, want)
			}
			if want {
				positives++
			}
		}
		if positives == 0 || positives == len(vs) {
			t.Fatalf("extents %v: %d of %d queries positive: the pool cannot tell answers apart", net.HasExtents(), positives, len(vs))
		}
		i := 0
		if allocs := testing.AllocsPerRun(len(vs), func() {
			e.RangeReach(vs[i%len(vs)], rs[i%len(vs)])
			i++
		}); allocs != 0 {
			t.Errorf("extents %v: %v allocs per query, want 0", net.HasExtents(), allocs)
		}
	}
}

// TestThreeDReachBackendsAgree checks 3DReach's two tile layouts —
// points over a point-only network, and rectangles over one with
// extents — against BFS on random networks, cyclic and acyclic, some
// with more venues than one tile holds.
func TestThreeDReachBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	boxed := 0
	for trial := 0; trial < 12; trial++ {
		net := randomNetwork(rng, 5+rng.Intn(25), 2+rng.Intn(20)+trial%3*40, trial%2 == 0)
		withExt := *net
		engines := []*ThreeDReach{
			NewThreeDReach(dataset.Prepare(net), BuildOptions{}),
			NewThreeDReach(dataset.Prepare(withExtents(rng, &withExt)), BuildOptions{}),
		}
		if c := engines[1].tiles.Columns(); len(c.X) != len(c.Post) {
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
		t.Errorf("only %d of 12 trials built tiles with extents", boxed)
	}
}

// TestThreeDReachIndexPerGeometry pins which tile layout 3DReach
// builds: one corner per entry over a point-only network, and both
// corners, the exact boxes, over one with extended geometries.
func TestThreeDReachIndexPerGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	points := dataset.Prepare(spatialCycleNetwork(rng, 40))
	extents := dataset.Prepare(withExtents(rng, spatialCycleNetwork(rng, 40)))
	for _, c := range []struct {
		name    string
		prep    *dataset.Prepared
		corners int
	}{
		{"points", points, 1},
		{"extents", extents, 2},
	} {
		e := NewThreeDReach(c.prep, BuildOptions{})
		if tc := e.tiles.Columns(); len(tc.X) != c.corners*len(tc.Post) {
			t.Errorf("%s: %d x values for %d entries, want %d corners each", c.name, len(tc.X), len(tc.Post), c.corners)
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
