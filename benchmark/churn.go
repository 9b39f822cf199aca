package main

import (
	"fmt"
	"math/rand"
	"time"

	rr "repro"
	"repro/internal/dataset"
)

// One epoch is what rrserve's updater does per published batch: absorb
// opsPerEpoch updates, publish a snapshot, and let readers probe it.
const (
	opsPerEpoch    = 32
	probesPerEpoch = 64
)

type opKind int

const (
	opAddEdge opKind = iota
	opDelEdge
	opMoveVenue
	opAddVenue
	opAddUser
	numOpKinds
)

var opNames = [numOpKinds]string{"add_edge", "del_edge", "move_venue", "add_venue", "add_user"}

// churnFixture is the updatable index over the gowalla-like network.
type churnFixture struct {
	net *rr.Network
	dyn *rr.DynamicIndex
}

func setupChurn(cfg config) (*churnFixture, error) {
	net := rr.GowallaLike(cfg.scale, datasetSeed)
	return &churnFixture{net: net, dyn: net.BuildDynamic()}, nil
}

func (f *churnFixture) close() {}

// shadow is the benchmark's own copy of the evolving graph: the source
// of valid ops and of the from-scratch network the oracle is built on.
type shadow struct {
	rng       *rand.Rand
	base      *dataset.Network // the initial network; its edges are never deleted
	n         int              // current vertex count
	users     []int            // base users first, then stream-added ones
	baseUsers int
	venues    []int
	pts       map[int][2]float64 // current venue positions
	live      map[[2]int]bool    // stream-added edges still present
	fifo      [][2]int           // the same edges, oldest first
	keep      int                // live edges to accumulate before deleting
	space     rr.Rect
}

func newShadow(cfg config, space rr.Rect) *shadow {
	base := dataset.GowallaLike(cfg.scale, datasetSeed)
	s := &shadow{
		// The update stream is data, like the networks: fixed, so every
		// seed probes the same sequence of index states and the spread
		// between seeds is the probes', not the stream's luck with merges.
		rng:  rand.New(rand.NewSource(datasetSeed)),
		base: base, n: base.NumVertices(),
		pts: map[int][2]float64{}, live: map[[2]int]bool{},
		keep: cfg.liveEdges, space: space,
	}
	for v := 0; v < s.n; v++ {
		if base.Spatial[v] {
			s.venues = append(s.venues, v)
			s.pts[v] = [2]float64{base.Points[v].X, base.Points[v].Y}
		} else {
			s.users = append(s.users, v)
		}
	}
	s.baseUsers = len(s.users)
	return s
}

func (s *shadow) point() (x, y float64) {
	return s.space.MinX + s.rng.Float64()*(s.space.MaxX-s.space.MinX),
		s.space.MinY + s.rng.Float64()*(s.space.MaxY-s.space.MinY)
}

// user draws an edge endpoint: one time in four a user the stream
// itself added, if there is one. Those start outside the giant
// component, so edges at them are the ones that close and break cycles —
// the merges and splits that loosen interval labels.
func (s *shadow) user() int {
	if added := len(s.users) - s.baseUsers; added > 0 && s.rng.Intn(4) == 0 {
		return s.users[s.baseUsers+s.rng.Intn(added)]
	}
	return s.users[s.rng.Intn(s.baseUsers)]
}

func (s *shadow) hasEdge(e [2]int) bool {
	return s.live[e] || (e[0] < s.base.NumVertices() && e[1] < s.base.NumVertices() && s.base.Graph.HasEdge(e[0], e[1]))
}

// next draws the next op and returns it as a closure over the index, so
// the caller times the index call alone. The mix — 46 % add_edge, 40 %
// del_edge of the oldest stream edge, 10 % move_venue, 2 % add_venue,
// 2 % add_user — keeps the graph quasi-stationary once keep stream
// edges are live; until then deletes fall back to inserts.
func (s *shadow) next() (opKind, func(*rr.DynamicIndex) error) {
	k := s.rng.Intn(100)
	switch {
	case k < 46 || (k < 86 && len(s.fifo) < s.keep):
		var e [2]int
		for {
			e = [2]int{s.user(), s.rng.Intn(s.n)}
			if s.rng.Intn(2) == 0 {
				e[1] = s.user()
			}
			if e[0] != e[1] && !s.hasEdge(e) {
				break
			}
		}
		s.live[e] = true
		s.fifo = append(s.fifo, e)
		return opAddEdge, func(d *rr.DynamicIndex) error { return d.AddEdge(e[0], e[1]) }
	case k < 86:
		e := s.fifo[0]
		s.fifo = s.fifo[1:]
		delete(s.live, e)
		return opDelEdge, func(d *rr.DynamicIndex) error { return d.DeleteEdge(e[0], e[1]) }
	case k < 96:
		v := s.venues[s.rng.Intn(len(s.venues))]
		x, y := s.point()
		s.pts[v] = [2]float64{x, y}
		return opMoveVenue, func(d *rr.DynamicIndex) error { return d.MoveVenue(v, x, y) }
	case k < 98:
		x, y := s.point()
		v := s.n
		s.n++
		s.venues = append(s.venues, v)
		s.pts[v] = [2]float64{x, y}
		return opAddVenue, func(d *rr.DynamicIndex) error {
			if got := d.AddVenue(x, y); got != v {
				return fmt.Errorf("add_venue: got id %d, want %d", got, v)
			}
			return nil
		}
	default:
		v := s.n
		s.n++
		s.users = append(s.users, v)
		return opAddUser, func(d *rr.DynamicIndex) error {
			if got := d.AddUser(); got != v {
				return fmt.Errorf("add_user: got id %d, want %d", got, v)
			}
			return nil
		}
	}
}

// static builds the current graph from scratch with method m.
func (s *shadow) static(m rr.Method) (*rr.Index, error) {
	b := rr.NewNetworkBuilder(s.n)
	for v, p := range s.pts {
		b.SetPoint(v, p[0], p[1])
	}
	s.base.Graph.Edges(func(u, v int) { b.AddEdge(u, v) })
	for e := range s.live {
		b.AddEdge(e[0], e[1])
	}
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	return net.Build(m)
}

// churnDetail is the writer/reader split behind churn's end-to-end
// numbers; the layer pass prints it.
type churnDetail struct {
	opTime    [numOpKinds]time.Duration
	opCount   [numOpKinds]int
	snapTime  time.Duration
	probeTime time.Duration
	epochs    int
	probes    []int32 // per-probe latency in issue order
	stats     rr.UpdateStats
	memory    int64
	shadow    *shadow // the final graph
	pool      *pool
}

func (d *churnDetail) writeTime() time.Duration {
	t := d.snapTime
	for _, x := range d.opTime {
		t += x
	}
	return t
}

func (d *churnDetail) ops() int {
	n := 0
	for _, c := range d.opCount {
		n += c
	}
	return n
}

// updateRate is the writer's own rate: ops over time in op and Snapshot
// calls. probeRate is the reader's: probes over time in probe calls.
func (d *churnDetail) updateRate() float64 { return float64(d.ops()) / d.writeTime().Seconds() }
func (d *churnDetail) probeRate() float64  { return float64(len(d.probes)) / d.probeTime.Seconds() }

// churnBench is a prepared churn run. Measuring consumes the index, so
// a second measure builds a fresh one.
type churnBench struct {
	f      *churnFixture
	p      *pool
	setupS float64
}

func prepareChurn(_ workload, cfg config) (bench, error) {
	f, setupS, err := repeatSetup(cfg, setupChurn)
	if err != nil {
		return nil, err
	}
	// Probes are checked against from-scratch builds of the evolving
	// graph, so the pool needs no precomputed answers.
	return &churnBench{f: f, p: newPool(f.net, cfg.poolSize, cfg.seed), setupS: setupS}, nil
}

func (b *churnBench) close() {}

func (b *churnBench) measure(cfg config, tr *tracer) (*result, error) {
	res, _, err := b.measureDetail(cfg, tr)
	return res, err
}

// measureDetail does the fixed work: cfg.epochs × (32 ops, Snapshot, 64
// probes), one goroutine. Every checkEvery-th epoch and the last,
// outside the clocks, the epoch's probe answers are compared with a
// from-scratch SpaReach-BFL build of the shadow graph.
func (b *churnBench) measureDetail(cfg config, tr *tracer) (*result, *churnDetail, error) {
	f, p, setupS := b.f, b.p, b.setupS
	if b.f = nil; f == nil {
		var err error
		if f, err = setupChurn(cfg); err != nil {
			return nil, nil, err
		}
	}
	sh := newShadow(cfg, f.net.Space())
	res := &result{workload: "churn", metrics: metrics{}}
	det := &churnDetail{shadow: sh, pool: p}
	spans := tr.buf()
	// Fixed work has no natural end when the index degrades badly; past
	// four times its usual length the unfinished probes count as failed.
	deadline := time.Now().Add(4 * cfg.timed)
	answers := make([]bool, probesPerEpoch)
	for e := 0; e < cfg.epochs; e++ {
		if time.Now().After(deadline) {
			left := int64(cfg.epochs-e) * probesPerEpoch
			res.attempted += left
			res.failed += left - 1
			res.fail("aborted at epoch %d of %d", e, cfg.epochs)
			break
		}
		for i := 0; i < opsPerEpoch; i++ {
			kind, apply := sh.next()
			t := time.Now()
			err := apply(f.dyn)
			det.opTime[kind] += time.Since(t)
			det.opCount[kind]++
			res.attempted++
			if err != nil {
				res.fail("epoch %d %s: %v", e, opNames[kind], err)
			}
		}
		t := time.Now()
		snap := f.dyn.Snapshot()
		det.snapTime += time.Since(t)
		for j := 0; j < probesPerEpoch; j++ {
			q := p.q[(e*probesPerEpoch+j)%len(p.q)]
			t := time.Now()
			answers[j] = snap.RangeReach(q.Vertex, q.Region)
			end := time.Now()
			det.probeTime += end.Sub(t)
			det.probes = append(det.probes, nanos(end.Sub(t)))
			spans.add(e*probesPerEpoch+j, "incr", "", t, end)
		}
		res.attempted += probesPerEpoch
		det.epochs++
		if last := e == cfg.epochs-1; last || (e+1)%cfg.checkEvery == 0 {
			oracle, err := sh.static(rr.SpaReachBFL)
			if err != nil {
				return nil, nil, fmt.Errorf("churn oracle: %w", err)
			}
			for j := 0; j < probesPerEpoch; j++ {
				q := p.q[(e*probesPerEpoch+j)%len(p.q)]
				if want := oracle.RangeReach(q.Vertex, q.Region); answers[j] != want {
					res.fail("epoch %d probe %d: got %v, from-scratch build says %v", e, j, answers[j], want)
				}
			}
		}
	}
	det.stats = f.dyn.UpdateStats()
	det.memory = f.dyn.MemoryBytes()

	m := latencies(det.probes).micros()
	busy := det.writeTime() + det.probeTime
	res.samples = len(m)
	res.metrics.set("setup_s", "s", setupS)
	// One goroutine both writes and reads, so answers per second of the
	// whole loop is what a caller gets while the stream is absorbed; the
	// writer's and reader's own rates are layer metrics.
	res.metrics.set("throughput_qps", "1/s", float64(len(m))/busy.Seconds())
	res.metrics.set("query_p50_us", "us", quantile(m, 0.50))
	res.metrics.set("query_p99_us", "us", quantile(m, 0.99))
	res.metrics.set("index_bytes", "B", float64(det.memory))
	res.note("update_ops_per_s", det.updateRate())
	res.note("probe_qps", det.probeRate())
	return res, det, nil
}

// staticProbeP99 replays the last quarter's probes on a static 3DReach
// index of the final graph: ROADMAP's "within 5× of static" reference.
func (d *churnDetail) staticProbeP99() (float64, error) {
	idx, err := d.shadow.static(rr.ThreeDReach)
	if err != nil {
		return 0, err
	}
	var lat latencies
	for i := len(d.probes) * 3 / 4; i < len(d.probes); i++ {
		q := d.pool.q[i%len(d.pool.q)]
		t := time.Now()
		idx.RangeReach(q.Vertex, q.Region)
		lat = append(lat, nanos(time.Since(t)))
	}
	return quantile(lat.micros(), 0.99), nil
}
