package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Regime selects the SCC structure of a generated network, the property
// the paper uses to pick its four datasets (§6.1): Gowalla and WeePlaces
// have all users in a single giant SCC, while Foursquare and Yelp break
// into many components around a partial core.
type Regime int

const (
	// GiantSCC connects all users into one strongly connected component.
	GiantSCC Regime = iota
	// Fragmented keeps only CoreFraction of the users strongly
	// connected; the rest stay in singleton or small components.
	Fragmented
)

// GenConfig parameterizes the synthetic geosocial network generator. The
// generator substitutes for the paper's proprietary check-in dumps; see
// DESIGN.md §3 for the calibration rationale.
type GenConfig struct {
	// Name labels the dataset in reports.
	Name string
	// Users is the number of social vertices.
	Users int
	// Venues is the number of spatial vertices.
	Venues int
	// AvgFriends is the mean number of outgoing friendship edges for a
	// non-hub user. A small fraction of users become hubs with degrees
	// up to MaxFriends so that the paper's query-vertex degree buckets
	// (up to 200+) are populated.
	AvgFriends float64
	// MaxFriends caps hub out-degrees (default 400).
	MaxFriends int
	// AvgCheckins is the mean number of check-in edges per user.
	AvgCheckins float64
	// Regime selects the SCC structure.
	Regime Regime
	// CoreFraction is the fraction of users inside the giant SCC when
	// Regime is Fragmented (default 0.5). Ignored for GiantSCC.
	CoreFraction float64
	// SmallSCCFraction is the fraction of non-core users grouped into
	// small (2–8 vertex) cycles when Regime is Fragmented (default 0.1).
	SmallSCCFraction float64
	// Clusters is the number of spatial clusters ("cities") venues are
	// drawn from (default 32).
	Clusters int
	// ClusterSpread is the Gaussian standard deviation of venue points
	// around their cluster center, in space units (default 2).
	ClusterSpread float64
	// Space is the rectangle venues live in (default [0,100]²).
	Space geom.Rect
	// Seed makes generation deterministic.
	Seed int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MaxFriends <= 0 {
		c.MaxFriends = 400
	}
	if c.CoreFraction <= 0 || c.CoreFraction > 1 {
		c.CoreFraction = 0.5
	}
	if c.SmallSCCFraction < 0 || c.SmallSCCFraction > 1 {
		c.SmallSCCFraction = 0.1
	}
	if c.Clusters <= 0 {
		c.Clusters = 32
	}
	if c.ClusterSpread <= 0 {
		c.ClusterSpread = 2
	}
	if !c.Space.Valid() || c.Space.Area() == 0 {
		c.Space = geom.NewRect(0, 0, 100, 100)
	}
	return c
}

// Generate builds a synthetic geosocial network. Vertex ids [0, Users)
// are users and [Users, Users+Venues) are venues. It panics on
// non-positive sizes, which is always a configuration error.
func Generate(cfg GenConfig) *Network {
	cfg = cfg.withDefaults()
	if cfg.Users <= 0 || cfg.Venues <= 0 {
		panic(fmt.Sprintf("dataset: Generate needs positive sizes, got %d users / %d venues", cfg.Users, cfg.Venues))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nU, nW := cfg.Users, cfg.Venues
	n := nU + nW

	net := &Network{
		Name:    cfg.Name,
		Spatial: make([]bool, n),
		Points:  make([]geom.Point, n),
	}

	// Venue locations: Zipf-weighted Gaussian clusters inside Space.
	centers := make([]geom.Point, cfg.Clusters)
	for i := range centers {
		centers[i] = geom.Pt(
			cfg.Space.Min.X+rng.Float64()*cfg.Space.Width(),
			cfg.Space.Min.Y+rng.Float64()*cfg.Space.Height(),
		)
	}
	clusterOf := make([]int, nW)
	h := harmonic(cfg.Clusters)
	for i := 0; i < nW; i++ {
		v := nU + i
		c := zipfPick(rng, cfg.Clusters, h)
		clusterOf[i] = c
		p := geom.Pt(
			centers[c].X+rng.NormFloat64()*cfg.ClusterSpread,
			centers[c].Y+rng.NormFloat64()*cfg.ClusterSpread,
		)
		net.Points[v] = clampPoint(p, cfg.Space)
		net.Spatial[v] = true
	}
	// Venues per cluster, for locality-skewed check-ins.
	venuesByCluster := make([][]int32, cfg.Clusters)
	for i := 0; i < nW; i++ {
		c := clusterOf[i]
		venuesByCluster[c] = append(venuesByCluster[c], int32(nU+i))
	}

	b := graph.NewBuilder(n)

	// SCC scaffolding over the users.
	perm := rng.Perm(nU)
	coreSize := nU
	if cfg.Regime == Fragmented {
		coreSize = int(float64(nU) * cfg.CoreFraction)
		if coreSize < 2 && nU >= 2 {
			coreSize = 2
		}
	}
	// A directed cycle through the core guarantees one SCC.
	for i := 0; i < coreSize; i++ {
		b.AddEdge(perm[i], perm[(i+1)%coreSize])
	}
	// Fragmented regime: group some non-core users into small cycles; the
	// rest stay acyclic sources feeding the core.
	if cfg.Regime == Fragmented {
		i := coreSize
		smallBudget := int(float64(nU-coreSize) * cfg.SmallSCCFraction)
		for smallBudget > 1 && i+1 < nU {
			size := 2 + rng.Intn(7)
			if size > smallBudget {
				size = smallBudget
			}
			if i+size > nU {
				size = nU - i
			}
			if size < 2 {
				break
			}
			for j := 0; j < size; j++ {
				b.AddEdge(perm[i+j], perm[i+(j+1)%size])
			}
			// Tie the small SCC into the core so its members can reach
			// spatial activity beyond their own check-ins.
			b.AddEdge(perm[i], perm[rng.Intn(coreSize)])
			i += size
			smallBudget -= size
		}
		// Remaining users: one-way followers of random earlier users, so
		// they stay singleton SCCs.
		for ; i < nU; i++ {
			if rng.Float64() < 0.8 {
				b.AddEdge(perm[i], perm[rng.Intn(coreSize)])
			}
		}
	}

	// Friendship edges: heavy-tailed out-degrees with explicit hubs so
	// every degree bucket of the paper's workload exists. In the
	// Fragmented regime edges must not create new cycles through
	// non-core users, so a user may only befriend strictly lower-ranked
	// users (core users rank lowest); this keeps the SCC scaffolding
	// intact and matches how peripheral accounts follow a dense core.
	rank := make([]int, nU)
	for i, u := range perm {
		rank[u] = i
	}
	for u := 0; u < nU; u++ {
		deg := friendDegree(rng, cfg)
		for k := 0; k < deg; k++ {
			var t int
			if cfg.Regime == Fragmented {
				limit := rank[u]
				if limit < coreSize {
					limit = coreSize // core users befriend the whole core
				}
				t = perm[rng.Intn(limit)]
			} else {
				t = rng.Intn(nU)
			}
			if t != u {
				b.AddEdge(u, t)
			}
		}
	}

	// Check-ins: users favor venues of their home cluster.
	for u := 0; u < nU; u++ {
		home := rng.Intn(cfg.Clusters)
		count := geometricCount(rng, cfg.AvgCheckins)
		for k := 0; k < count; k++ {
			var venue int32
			local := venuesByCluster[home]
			if len(local) > 0 && rng.Float64() < 0.8 {
				venue = local[rng.Intn(len(local))]
			} else {
				venue = int32(nU + rng.Intn(nW))
			}
			b.AddEdge(u, int(venue))
			net.Checkins++
		}
	}

	net.Graph = b.Build()
	return net
}

// friendDegree samples a user's friendship out-degree: 2% hubs in
// [150, MaxFriends], 8% mid-degree in [50, 150), the rest geometric with
// the configured mean.
func friendDegree(rng *rand.Rand, cfg GenConfig) int {
	switch r := rng.Float64(); {
	case r < 0.02:
		return 150 + rng.Intn(cfg.MaxFriends-150+1)
	case r < 0.10:
		return 50 + rng.Intn(100)
	default:
		return geometricCount(rng, cfg.AvgFriends)
	}
}

// geometricCount samples a non-negative count with the given mean from a
// geometric distribution, capped at 4·mean+10 to bound edge counts.
func geometricCount(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (mean + 1)
	count := 0
	cap := int(4*mean) + 10
	for rng.Float64() > p && count < cap {
		count++
	}
	return count
}

// zipfPick returns an index in [0, n) with probability ∝ 1/(i+1); h
// must be harmonic(n), which the caller computes once for all its draws.
func zipfPick(rng *rand.Rand, n int, h float64) int {
	// Inverse-CDF over harmonic weights; n is small (cluster count).
	target := rng.Float64() * h
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / float64(i+1)
		if sum >= target {
			return i
		}
	}
	return n - 1
}

func harmonic(n int) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / float64(i)
	}
	return sum
}

func clampPoint(p geom.Point, r geom.Rect) geom.Point {
	return geom.Pt(
		math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	)
}

// WithUserPoints returns a copy of net in which a share of the users
// who check in carry a point, the premise of the paper's Figure 5:
// components of users then hold points of their own. The rule, in
// vertex order: each non-spatial vertex with a spatial out-neighbor (a
// venue it checks into) is drawn with probability share, seeded by
// seed, and placed at the point of one of those venues, chosen
// uniformly. Its user reaches that point already, so every RangeReach
// answer is the same as on net. The copy shares net's graph.
func WithUserPoints(net *Network, share float64, seed int64) *Network {
	out := *net
	out.Spatial = slices.Clone(net.Spatial)
	out.Points = slices.Clone(net.Points)
	out.Extents = slices.Clone(net.Extents)
	if share <= 0 {
		return &out
	}
	rng := rand.New(rand.NewSource(seed))
	var venues []int32
	for u, spatial := range net.Spatial {
		if spatial {
			continue
		}
		venues = venues[:0]
		for _, v := range net.Graph.Out(u) {
			if net.Spatial[v] {
				venues = append(venues, v)
			}
		}
		if len(venues) == 0 || rng.Float64() >= share {
			continue
		}
		out.Spatial[u] = true
		out.Points[u] = net.Points[venues[rng.Intn(len(venues))]]
	}
	return &out
}
