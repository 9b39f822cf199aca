// Package workload generates RangeReach query workloads following the
// paper's experimental setup (§6.1): batches of queries whose region
// extent is a percentage of the network's space, whose query vertex is
// drawn from an out-degree bucket, and — for the selectivity experiment —
// whose region contains a controlled fraction of the spatial vertices.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// Extents are the paper's query-region extents, as percentages of the
// space covered by the network. The default (held fixed while other
// parameters vary) is 5%.
var Extents = []float64{1, 2, 5, 10, 20}

// DefaultExtent is the bolded default of §6.1.
const DefaultExtent = 5.0

// DegreeBuckets are the paper's query-vertex out-degree intervals; the
// last bucket is open-ended (200+). The default bucket is 50–99.
var DegreeBuckets = []DegreeBucket{
	{1, 49},
	{50, 99},
	{100, 149},
	{150, 199},
	{200, math.MaxInt32},
}

// DefaultDegreeBucket is the bolded default of §6.1 (50–99).
var DefaultDegreeBucket = DegreeBucket{50, 99}

// Selectivities are the paper's spatial selectivities: the percentage of
// the network's vertices that lie inside the query region.
var Selectivities = []float64{0.001, 0.01, 0.1, 1}

// DegreeBucket is a closed interval of query-vertex out-degrees.
type DegreeBucket struct {
	Lo, Hi int
}

// String implements fmt.Stringer ("50-99", "200+").
func (b DegreeBucket) String() string {
	if b.Hi >= math.MaxInt32 {
		return fmt.Sprintf("%d+", b.Lo)
	}
	return fmt.Sprintf("%d-%d", b.Lo, b.Hi)
}

// Query is one RangeReach query: a vertex and a region.
type Query struct {
	Vertex int
	Region geom.Rect
}

// Generator draws query workloads from a network.
type Generator struct {
	net      *dataset.Network
	rng      *rand.Rand
	space    geom.Rect
	byDegree map[DegreeBucket][]int32
	// points sorted by x then y, for selectivity-controlled regions.
	sortedPoints []geom.Point
}

// NewGenerator prepares a workload generator over net, seeded for
// reproducibility.
func NewGenerator(net *dataset.Network, seed int64) *Generator {
	space := net.Space()
	if space.IsEmpty() {
		// A network without spatial vertices still needs well-formed
		// (necessarily negative) queries.
		space = geom.NewRect(0, 0, 1, 1)
	}
	g := &Generator{
		net:      net,
		rng:      rand.New(rand.NewSource(seed)),
		space:    space,
		byDegree: make(map[DegreeBucket][]int32),
	}
	for v := 0; v < net.NumVertices(); v++ {
		d := net.Graph.OutDegree(v)
		for _, b := range DegreeBuckets {
			if d >= b.Lo && d <= b.Hi {
				g.byDegree[b] = append(g.byDegree[b], int32(v))
				break
			}
		}
	}
	for v, s := range net.Spatial {
		if s {
			g.sortedPoints = append(g.sortedPoints, net.Points[v])
		}
	}
	sort.Slice(g.sortedPoints, func(i, j int) bool {
		if g.sortedPoints[i].X != g.sortedPoints[j].X {
			return g.sortedPoints[i].X < g.sortedPoints[j].X
		}
		return g.sortedPoints[i].Y < g.sortedPoints[j].Y
	})
	return g
}

// Space returns the spatial extent queries are drawn from.
func (g *Generator) Space() geom.Rect { return g.space }

// Vertex draws a query vertex from the degree bucket. It falls back to
// the closest non-empty bucket below (and then above) if the requested
// bucket is empty, returning the bucket actually used.
func (g *Generator) Vertex(b DegreeBucket) (int, DegreeBucket) {
	if vs := g.byDegree[b]; len(vs) > 0 {
		return int(vs[g.rng.Intn(len(vs))]), b
	}
	idx := 0
	for i, cand := range DegreeBuckets {
		if cand == b {
			idx = i
			break
		}
	}
	for d := 1; d < len(DegreeBuckets); d++ {
		for _, i := range []int{idx - d, idx + d} {
			if i >= 0 && i < len(DegreeBuckets) {
				if vs := g.byDegree[DegreeBuckets[i]]; len(vs) > 0 {
					return int(vs[g.rng.Intn(len(vs))]), DegreeBuckets[i]
				}
			}
		}
	}
	// Degenerate network with no out-edges at all: any vertex.
	return g.rng.Intn(g.net.NumVertices()), b
}

// Region draws a random square region covering extentPct percent of the
// space's area, positioned uniformly inside the space.
func (g *Generator) Region(extentPct float64) geom.Rect {
	frac := math.Sqrt(extentPct / 100)
	w := g.space.Width() * frac
	h := g.space.Height() * frac
	x := g.space.Min.X + g.rng.Float64()*(g.space.Width()-w)
	y := g.space.Min.Y + g.rng.Float64()*(g.space.Height()-h)
	return geom.NewRect(x, y, x+w, y+h)
}

// RegionWithSelectivity draws a region containing approximately
// selectivityPct percent of the network's vertices (the paper's spatial
// selectivity, §6.1): a square grown around a random spatial seed point
// until it covers the target count.
func (g *Generator) RegionWithSelectivity(selectivityPct float64) geom.Rect {
	target := int(float64(g.net.NumVertices()) * selectivityPct / 100)
	if target < 1 {
		target = 1
	}
	if len(g.sortedPoints) == 0 {
		return g.Region(DefaultExtent)
	}
	seed := g.sortedPoints[g.rng.Intn(len(g.sortedPoints))]
	// Exponentially grow a square around the seed until it holds enough
	// points, then binary-search the side length.
	side := math.Max(g.space.Width(), g.space.Height()) / 1024
	maxSide := 2 * math.Max(g.space.Width(), g.space.Height())
	for side < maxSide && g.countInSquare(seed, side) < target {
		side *= 2
	}
	lo, hi := side/2, side
	for i := 0; i < 20; i++ {
		mid := (lo + hi) / 2
		if g.countInSquare(seed, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return squareAround(seed, hi)
}

func squareAround(c geom.Point, side float64) geom.Rect {
	half := side / 2
	return geom.NewRect(c.X-half, c.Y-half, c.X+half, c.Y+half)
}

func (g *Generator) countInSquare(c geom.Point, side float64) int {
	r := squareAround(c, side)
	// Points are sorted by x: narrow to the x-slab, then test y.
	lo := sort.Search(len(g.sortedPoints), func(i int) bool {
		return g.sortedPoints[i].X >= r.Min.X
	})
	count := 0
	for i := lo; i < len(g.sortedPoints) && g.sortedPoints[i].X <= r.Max.X; i++ {
		if p := g.sortedPoints[i]; p.Y >= r.Min.Y && p.Y <= r.Max.Y {
			count++
		}
	}
	return count
}

// Batch draws n queries with regions of the given extent and vertices
// from the given degree bucket.
func (g *Generator) Batch(n int, extentPct float64, bucket DegreeBucket) []Query {
	queries := make([]Query, n)
	for i := range queries {
		v, _ := g.Vertex(bucket)
		queries[i] = Query{Vertex: v, Region: g.Region(extentPct)}
	}
	return queries
}

// SelectivityBatch draws n queries whose regions hold the given fraction
// of vertices, with vertices from the given degree bucket.
func (g *Generator) SelectivityBatch(n int, selectivityPct float64, bucket DegreeBucket) []Query {
	queries := make([]Query, n)
	for i := range queries {
		v, _ := g.Vertex(bucket)
		queries[i] = Query{Vertex: v, Region: g.RegionWithSelectivity(selectivityPct)}
	}
	return queries
}

// FilteredBatch draws n queries whose RangeReach answer — as judged by
// the supplied oracle — matches wantPositive, by rejection sampling. The
// paper repeatedly points out that negative queries are the worst case
// of SpaReach, SocReach and GeoReach (§2.2.3, §6.4); an all-negative
// workload makes that visible where mixed workloads average it away.
//
// Sampling gives up after maxAttempts draws per query (default 500 when
// <= 0) and falls back to whatever the last draw was, so pathological
// networks still return n queries; the second return value counts how
// many queries actually match wantPositive.
func (g *Generator) FilteredBatch(n int, extentPct float64, bucket DegreeBucket,
	wantPositive bool, oracle func(Query) bool, maxAttempts int) ([]Query, int) {
	if maxAttempts <= 0 {
		maxAttempts = 500
	}
	queries := make([]Query, n)
	matched := 0
	for i := range queries {
		var q Query
		ok := false
		for attempt := 0; attempt < maxAttempts; attempt++ {
			v, _ := g.Vertex(bucket)
			q = Query{Vertex: v, Region: g.Region(extentPct)}
			if oracle(q) == wantPositive {
				ok = true
				break
			}
		}
		if ok {
			matched++
		}
		queries[i] = q
	}
	return queries, matched
}
