package main

import (
	"fmt"
	"math/rand"
	"time"

	rr "repro"
)

// config sizes one run. full() is what BENCHMARK.json measures; smoke()
// is the same code at a size `go test` can afford.
type config struct {
	seed        int64
	scale       float64       // dataset preset scale
	poolSize    int           // distinct queries per dataset
	naiveSample int           // pool queries cross-checked against BFS
	setups      int           // set-up repetitions; setup_s is their median
	warm, timed time.Duration // warm-up and timed phase
	slice       time.Duration // metrics are medians over slices of this length
	epochs      int           // churn: fixed work
	checkEvery  int           // churn: epochs between from-scratch checks
	liveEdges   int           // churn: stream edges kept live before deletes start
	dir         string        // scratch directory
	pools       *poolCache    // answered pools, shared by the passes of one run
}

func full(seed int64, seconds int, dir string) config {
	return config{
		seed: seed, scale: 2, poolSize: 65536, naiveSample: 512, setups: 3,
		warm: 2 * time.Second, timed: time.Duration(seconds) * time.Second, slice: time.Second,
		// Fixed work, not a time budget: probe cost grows with accumulated
		// updates, so a time-budgeted run would compare different index
		// states on two commits. --seconds only scales the amount.
		epochs: 96 * seconds, checkEvery: 64, liveEdges: 2048,
		dir: dir, pools: &poolCache{},
	}
}

func smoke(seed int64, dir string) config {
	return config{
		seed: seed, scale: 0.1, poolSize: 4096, naiveSample: 64, setups: 1,
		warm: 100 * time.Millisecond, timed: 500 * time.Millisecond, slice: 125 * time.Millisecond,
		epochs: 8, checkEvery: 4, liveEdges: 64,
		dir: dir, pools: &poolCache{},
	}
}

// result is what one workload run reports.
type result struct {
	workload  string
	metrics   metrics
	samples   int   // timed queries behind the percentiles
	attempted int64 // every operation issued, warm-up included
	failed    int64 // errors, non-200s, timeouts, answers ≠ oracle
	firstErr  error
	notes     map[string]float64 // side observations the layer pass reuses
}

// fail counts one failed operation, keeping the first as the example.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = fmt.Errorf(format, args...)
	}
}

// absorb adds another pass's operation counts to r.
func (r *result) absorb(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func (r *result) note(k string, v float64) {
	if r.notes == nil {
		r.notes = map[string]float64{}
	}
	r.notes[k] = v
}

// workload is one named entry of BENCHMARK.json. prepare does the
// set-up (timed, repeated) and draws the answered pools; the bench it
// returns can be measured more than once, which is how the layer pass
// gets tracing overhead from one fixture.
type workload struct {
	name    string
	zipf    bool // queries are drawn Zipf rather than uniformly
	prepare func(w workload, cfg config) (bench, error)
}

type bench interface {
	measure(cfg config, tr *tracer) (*result, error)
	close()
}

var workloads = []workload{
	{name: "lib-query", prepare: prepareLibQuery},
	{name: "served", zipf: true, prepare: prepareHTTP(setupServed)},
	{name: "cluster", prepare: prepareHTTP(setupCluster)},
	{name: "churn", prepare: prepareChurn},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run is the end-to-end pass: tracing off.
func (w workload) run(cfg config) (*result, error) {
	b, err := w.prepare(w, cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	return b.measure(cfg, nil)
}

// repeatSetup runs setup cfg.setups times, closing all but the last
// fixture, and returns the last with the median wall time. Set-up is
// repeated because one cold build is the noisiest number in the run.
func repeatSetup[F interface{ close() }](cfg config, setup func(config) (F, error)) (F, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t := time.Now()
		f, err := setup(cfg)
		if err != nil {
			return f, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		if i == cfg.setups-1 {
			return f, median(times), nil
		}
		f.close()
	}
}

// ---- lib-query ----

// libFixture is the library with nothing in front of it: built 3DReach
// indexes of a giant-SCC and a fragmented network.
type libFixture struct {
	nets [2]*rr.Network
	idx  [2]*rr.Index
}

func setupLib(cfg config) (*libFixture, error) {
	f := &libFixture{nets: [2]*rr.Network{rr.GowallaLike(cfg.scale, datasetSeed), rr.YelpLike(cfg.scale, datasetSeed)}}
	for i, n := range f.nets {
		idx, err := n.Build(rr.ThreeDReach)
		if err != nil {
			return nil, err
		}
		f.idx[i] = idx
	}
	return f, nil
}

func (f *libFixture) close() {}

// libBench is a prepared lib-query run.
type libBench struct {
	*libFixture
	ps     [2]*pool
	setupS float64
}

func prepareLibQuery(_ workload, cfg config) (bench, error) {
	f, setupS, err := repeatSetup(cfg, setupLib)
	if err != nil {
		return nil, err
	}
	b := &libBench{libFixture: f, setupS: setupS}
	for i, n := range f.nets {
		n := n
		if b.ps[i], err = cfg.pools.get(n.Name(), func() *rr.Network { return n }, cfg, int64(i)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// libLoop runs queries round-robin over the indexes (1:1 for two) for
// dur from one goroutine, starting at op number from; op i goes to index
// i mod len(idx). With timed set it clocks every query; without, it
// only counts, so throughput is free of clock reads.
func libLoop(idx []*rr.Index, ps []*pool, from int, dur time.Duration, timed bool, spans *spanBuf, res *result) (ops int, lat latencies) {
	n := len(ps[0].q)
	start := time.Now()
	for i := from; ; i++ {
		if (i-from)%64 == 0 && time.Since(start) >= dur {
			return i - from, lat
		}
		d, k := i%len(idx), (i/len(idx))%n
		q := ps[d].q[k]
		var t time.Time
		if timed || spans != nil {
			t = time.Now()
		}
		got := idx[d].RangeReach(q.Vertex, q.Region)
		if timed || spans != nil {
			end := time.Now()
			if timed {
				lat = append(lat, nanos(end.Sub(t)))
			}
			spans.add(i, "core", "", t, end)
		}
		res.attempted++
		if got != ps[d].want[k] {
			res.fail("%s query %d: got %v, oracle says %v", ps[d].net.Name(), k, got, ps[d].want[k])
		}
	}
}

func (f *libBench) measure(cfg config, tr *tracer) (*result, error) {
	idx, ps, setupS := f.idx[:], f.ps[:], f.setupS
	res := &result{workload: "lib-query", metrics: metrics{}}
	spans := tr.buf()
	at, _ := libLoop(idx, ps, 0, cfg.warm, false, nil, res)

	// Alternating slices: one only counts (throughput), the next clocks
	// every query (percentiles).
	var qps, p50s, p99s []float64
	for s := 0; s < int(cfg.timed/cfg.slice); s++ {
		t := time.Now()
		ops, lat := libLoop(idx, ps, at, cfg.slice, s%2 == 1, spans, res)
		at += ops
		if s%2 == 0 {
			qps = append(qps, float64(ops)/time.Since(t).Seconds())
			continue
		}
		m := lat.micros()
		p50s = append(p50s, quantile(m, 0.50))
		p99s = append(p99s, quantile(m, 0.99))
		res.samples += len(lat)
	}
	res.metrics.set("setup_s", "s", setupS)
	_, _, bestQPS := quartiles(qps) // the better quartile; see loopStats.summarize
	bestP50, _, _ := quartiles(p50s)
	res.metrics.set("throughput_qps", "1/s", bestQPS)
	res.metrics.set("query_p50_us", "us", bestP50)
	res.metrics.set("query_p99_us", "us", median(p99s))
	res.metrics.set("index_bytes", "B", float64(f.idx[0].Stats().Bytes+f.idx[1].Stats().Bytes))
	res.note("positives.gowalla-like", ps[0].positiveShare())
	res.note("positives.yelp-like", ps[1].positiveShare())
	return res, nil
}

// ---- served and cluster ----

// gowallaPool is the pool every workload but lib-query's second half
// draws from.
func gowallaPool(cfg config) (*pool, error) {
	return cfg.pools.get("gowalla-like", func() *rr.Network { return rr.GowallaLike(cfg.scale, datasetSeed) }, cfg, 0)
}

// clientDraws gives each client its own stream from the workload seed.
func clientDraws(cfg config, mk func(rng *rand.Rand) drawFunc) []drawFunc {
	draws := make([]drawFunc, clients)
	for c := range draws {
		draws[c] = mk(rand.New(rand.NewSource(cfg.seed*131 + int64(c))))
	}
	return draws
}

// draws builds the clients' streams over pool p: Zipf ranks through a
// seed-shuffled permutation, or uniform.
func draws(cfg config, p *pool, zipf bool) []drawFunc {
	if !zipf {
		return clientDraws(cfg, func(rng *rand.Rand) drawFunc { return uniformDraw(len(p.q), rng) })
	}
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(len(p.q))
	return clientDraws(cfg, func(rng *rand.Rand) drawFunc { return zipfDraw(perm, rng) })
}

// httpFixture is what the two HTTP workloads' fixtures have in common.
type httpFixture interface {
	close()
	url() string // where the clients send
	indexBytes() int64
}

// httpBench is a prepared served or cluster run.
type httpBench struct {
	httpFixture
	w      workload
	p      *pool
	setupS float64
}

func prepareHTTP[F httpFixture](setup func(config) (F, error)) func(workload, config) (bench, error) {
	return func(w workload, cfg config) (bench, error) {
		f, setupS, err := repeatSetup(cfg, setup)
		if err != nil {
			return nil, err
		}
		p, err := gowallaPool(cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		return &httpBench{httpFixture: f, w: w, p: p, setupS: setupS}, nil
	}
}

// measure warms up, then runs the timed closed loop; both are checked.
func (b *httpBench) measure(cfg config, tr *tracer) (*result, error) {
	res := &result{workload: b.w.name, metrics: metrics{}}
	streams := draws(cfg, b.p, b.w.zipf)
	warm := closedLoop(b.url(), b.p, streams, cfg.warm, cfg.warm, nil)
	st := closedLoop(b.url(), b.p, streams, cfg.timed, cfg.slice, tr)
	qps, p50, p99, n := st.summarize(cfg.slice)
	res.metrics.set("setup_s", "s", b.setupS)
	res.metrics.set("throughput_qps", "1/s", qps)
	res.metrics.set("query_p50_us", "us", p50)
	res.metrics.set("query_p99_us", "us", p99)
	res.metrics.set("index_bytes", "B", float64(b.indexBytes()))
	res.samples = n
	res.attempted = warm.attempted + st.attempted
	res.failed = warm.failed + st.failed
	if res.firstErr = warm.firstErr; res.firstErr == nil {
		res.firstErr = st.firstErr
	}
	res.note("positives.gowalla-like", b.p.positiveShare())
	res.note("cache_hit_ratio", float64(st.cached)/float64(st.attempted))  // from rrserve's replies
	res.note("shards_per_query", float64(st.shards)/float64(st.attempted)) // from rrrouter's
	return res, nil
}
