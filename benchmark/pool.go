package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	rr "repro"
)

// regionShares are the query-region areas as a share of the network's
// space, drawn in equal parts. The smallest supplies the negatives the
// paper (§6.4) calls the worst case; a pool that is ~99 % positive
// averages them away.
var regionShares = [...]float64{0.0005, 0.01, 0.05, 0.20}

// pool is a fixed set of distinct queries over one network with their
// expected answers.
type pool struct {
	net    *rr.Network
	q      []rr.Query
	want   []bool
	bodies [][]byte // pre-marshalled /v1/query bodies
}

type queryBody struct {
	Vertex int        `json:"vertex"`
	Region [4]float64 `json:"region"`
}

// newPool draws n distinct queries: the vertex uniform over users with
// at least one out-edge, the region a square of one of regionShares
// placed uniformly inside the space.
func newPool(net *rr.Network, n int, seed int64) *pool {
	rng := rand.New(rand.NewSource(seed))
	var users []int
	for v := 0; v < net.NumVertices(); v++ {
		if !net.IsSpatial(v) && net.OutDegree(v) >= 1 {
			users = append(users, v)
		}
	}
	sp := net.Space()
	w, h := sp.MaxX-sp.MinX, sp.MaxY-sp.MinY
	p := &pool{net: net, q: make([]rr.Query, 0, n)}
	seen := make(map[rr.Query]bool, n)
	for len(p.q) < n {
		side := math.Min(math.Sqrt(regionShares[len(p.q)%len(regionShares)]*w*h), math.Min(w, h))
		x := sp.MinX + rng.Float64()*(w-side)
		y := sp.MinY + rng.Float64()*(h-side)
		q := rr.Query{Vertex: users[rng.Intn(len(users))], Region: rr.NewRect(x, y, x+side, y+side)}
		if seen[q] {
			continue
		}
		seen[q] = true
		p.q = append(p.q, q)
	}
	return p
}

// marshalBodies pre-encodes the HTTP request bodies so the client's
// timed loop does no JSON encoding.
func (p *pool) marshalBodies() {
	p.bodies = make([][]byte, len(p.q))
	for i, q := range p.q {
		b, err := json.Marshal(queryBody{Vertex: q.Vertex,
			Region: [4]float64{q.Region.MinX, q.Region.MinY, q.Region.MaxX, q.Region.MaxY}})
		if err != nil {
			panic(err) // two ints and four finite floats always encode
		}
		p.bodies[i] = b
	}
}

// answer fills want from two engines that share no index structure with
// the engine under test (3DReach) or with each other — the line-based
// reversed labeling and the Bloom-filter-labeled spatial-first baseline —
// and cross-checks a sample against plain BFS. The oracle is the
// benchmark's instrument, so its cost is kept out of setup_s.
func (p *pool) answer(naiveSample int) error {
	rev, err := p.net.Build(rr.ThreeDReachRev)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	bfl, err := p.net.Build(rr.SpaReachBFL)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	p.want = rev.RangeReachBatch(p.q, 0)
	for i, got := range bfl.RangeReachBatch(p.q, 0) {
		if got != p.want[i] {
			return fmt.Errorf("oracle: 3DReach-Rev and SpaReach-BFL disagree on %s query %d (v=%d r=%v)",
				p.net.Name(), i, p.q[i].Vertex, p.q[i].Region)
		}
	}
	naive, err := p.net.Build(rr.Naive)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	step := len(p.q) / naiveSample
	if step < 1 {
		step = 1
	}
	var sample []rr.Query
	for i := 0; i < len(p.q); i += step {
		sample = append(sample, p.q[i])
	}
	for j, got := range naive.RangeReachBatch(sample, 0) {
		if got != p.want[j*step] {
			return fmt.Errorf("oracle: BFS disagrees with the indexed engines on %s query %d", p.net.Name(), j*step)
		}
	}
	return nil
}

func (p *pool) positiveShare() float64 {
	pos := 0
	for _, w := range p.want {
		if w {
			pos++
		}
	}
	return float64(pos) / float64(len(p.want))
}

// poolCache keeps answered pools so the passes of one run (and the
// workloads of an all-workloads run) pay for each oracle once.
type poolCache struct {
	byKey map[string]*pool
}

// get returns the pool over the named network for cfg's seed, offset by
// salt so two networks of one workload get different streams. net is
// only called on a miss.
func (c *poolCache) get(name string, net func() *rr.Network, cfg config, salt int64) (*pool, error) {
	key := fmt.Sprintf("%s/%d/%d", name, cfg.seed+salt, cfg.poolSize)
	if p, ok := c.byKey[key]; ok {
		return p, nil
	}
	p := newPool(net(), cfg.poolSize, cfg.seed+salt)
	if err := p.answer(cfg.naiveSample); err != nil {
		return nil, err
	}
	p.marshalBodies()
	if c.byKey == nil {
		c.byKey = map[string]*pool{}
	}
	c.byKey[key] = p
	return p, nil
}
