package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	rr "repro"
)

// The layer pass (-trace 1) times each module from outside, by calling
// its public functions from this package; no program code is edited to
// be measured. Times come from the benchmark's clocks. The only
// program-made numbers used are counts (Explain work counters,
// UpdateStats, the cached/shards response fields, router /metrics
// totals), which repeat exactly for a fixed seed.

// layerPass carries what the probes share.
type layerPass struct {
	cfg    config
	wl     workload
	res    *result
	probe  time.Duration // length of one throughput or latency probe
	nets   [2]*rr.Network
	ps     [2]*pool
	sample []int // gowalla pool indices: a 1-in-8 sample of the workload's draws
	spans  *spanBuf
}

// gowalla indexes the per-network pairs (nets, ps, built indexes); the
// other slot is the yelp-like network.
const gowalla = 0

// engines are the indexed methods of the paper's evaluation and the
// planner's composite, under the metric prefix of the module they
// belong to.
var engines = []struct {
	key string
	m   rr.Method
}{
	{"core.3dreach", rr.ThreeDReach},
	{"core.3dreach-rev", rr.ThreeDReachRev},
	{"core.socreach", rr.SocReach},
	{"core.spareach-bfl", rr.SpaReachBFL},
	{"core.spareach-int", rr.SpaReachINT},
	{"core.georeach", rr.GeoReach},
	{"planner.auto", rr.MethodAuto},
}

func runLayers(wl workload, cfg config) (*result, error) {
	lp := &layerPass{cfg: cfg, wl: wl, res: &result{workload: wl.name, metrics: metrics{}}, probe: cfg.slice / 5}
	tr := newTracer()
	if err := lp.overhead(tr); err != nil {
		return nil, err
	}
	lp.spans = tr.buf()
	built, err := lp.core()
	if err != nil {
		return nil, err
	}
	idx := built[rr.ThreeDReach.String()][gowalla]
	steps := []func(*rr.Index) error{lp.batch, lp.flatbuf, lp.incr}
	for _, step := range steps {
		if err := step(idx); err != nil {
			return nil, err
		}
	}
	if err := lp.serving(idx); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.dir, "trace-"+wl.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	lp.res.note("spans_written", float64(tr.count()))
	for name, m := range lp.res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("layer metric %s is not finite", name)
		}
	}
	return lp.res, nil
}

func (lp *layerPass) set(name, unit string, v float64) { lp.res.metrics.set(name, unit, v) }

// overhead runs the workload itself, short, from one fixture: once with
// tracing off and once recording a span per operation.
func (lp *layerPass) overhead(tr *tracer) error {
	short := lp.cfg
	short.setups = 1
	short.warm = lp.cfg.warm / 4
	short.timed = lp.cfg.timed / 5
	if short.timed < 2*short.slice {
		short.timed = 2 * short.slice
	}
	short.epochs = (lp.cfg.epochs + 4) / 5
	b, err := lp.wl.prepare(lp.wl, short)
	if err != nil {
		return err
	}
	defer b.close()
	var qps [2]float64
	for i, t := range []*tracer{nil, tr} {
		r, err := b.measure(short, t)
		if err != nil {
			return err
		}
		qps[i] = r.metrics["throughput_qps"].Value
		lp.res.absorb(r)
	}
	lp.set("trace.overhead_ratio", "ratio", qps[1]/qps[0])
	return nil
}

// ---- dataset, core, planner ----

// core generates both networks, builds every engine over them, and
// measures each on the lib-query pools (interleaved 1:1). It returns the
// built indexes by method name.
func (lp *layerPass) core() (map[string][2]*rr.Index, error) {
	cfg := lp.cfg
	gens := [2]func(float64, int64) *rr.Network{rr.GowallaLike, rr.YelpLike}
	for d, gen := range gens {
		t := time.Now()
		lp.nets[d] = gen(cfg.scale, datasetSeed)
		lp.set("dataset.generate_ms."+lp.nets[d].Name(), "ms", ms(time.Since(t)))
		net := lp.nets[d]
		var err error
		if lp.ps[d], err = cfg.pools.get(net.Name(), func() *rr.Network { return net }, cfg, int64(d)); err != nil {
			return nil, err
		}
	}
	lp.drawSample()

	built := map[string][2]*rr.Index{}
	qps := map[string]float64{}
	var defaultBuild time.Duration
	for _, e := range engines {
		var pair [2]*rr.Index
		t := time.Now()
		for d, net := range lp.nets {
			idx, err := net.Build(e.m)
			if err != nil {
				return nil, fmt.Errorf("build %v: %w", e.m, err)
			}
			pair[d] = idx
		}
		buildTime := time.Since(t)
		if e.m == rr.ThreeDReach {
			defaultBuild = buildTime
		}
		built[e.m.String()] = pair
		p := lp.engineProbe(pair[:], lp.ps[:])
		qps[e.m.String()] = p.qps
		lp.set(e.key+".build_ms", "ms", ms(buildTime))
		lp.set(e.key+".index_bytes", "B", float64(pair[0].Stats().Bytes+pair[1].Stats().Bytes))
		lp.set(e.key+".qps", "1/s", p.qps)
		lp.set(e.key+".query_p99_us", "us", quantile(p.lat.micros(), 0.99))
		if e.m == rr.ThreeDReach {
			lp.threeDReach(pair, p)
		}
	}

	t := time.Now()
	for _, net := range lp.nets {
		if _, err := net.Build(rr.ThreeDReach, rr.WithParallelism(1)); err != nil {
			return nil, err
		}
	}
	lp.set("pool.build_speedup", "ratio", float64(time.Since(t))/float64(defaultBuild))
	lp.planner(built, qps)
	return built, nil
}

// drawSample keeps every 8th of the workload's own draws.
func (lp *layerPass) drawSample() {
	n := len(lp.ps[gowalla].q) / 8
	draw := draws(lp.cfg, lp.ps[gowalla], lp.wl.zipf)[0]
	lp.sample = make([]int, n)
	for j := range lp.sample {
		for skip := 0; skip < 7; skip++ {
			draw()
		}
		lp.sample[j] = draw()
	}
}

type engineProbe struct {
	qps  float64
	lat  latencies // op i of the timed probe went to index i mod 2
	from int       // op number of lat[0]
}

// engineProbe is one counting probe and one clocking probe.
func (lp *layerPass) engineProbe(idx []*rr.Index, ps []*pool) engineProbe {
	t := time.Now()
	ops, _ := libLoop(idx, ps, 0, lp.probe, false, nil, lp.res)
	p := engineProbe{qps: float64(ops) / time.Since(t).Seconds(), from: ops}
	_, p.lat = libLoop(idx, ps, ops, lp.probe, true, nil, lp.res)
	return p
}

// threeDReach adds what only the engine under every workload gets: the
// two SCC regimes apart, positives and negatives apart, exact work
// counts and allocations.
func (lp *layerPass) threeDReach(pair [2]*rr.Index, p engineProbe) {
	for d := range pair {
		one := lp.engineProbe(pair[d:d+1], lp.ps[d:d+1])
		lp.set("core.3dreach.qps."+lp.nets[d].Name(), "1/s", one.qps)
	}
	var pos, neg latencies
	n := len(lp.ps[0].q)
	for j, ns := range p.lat {
		i := p.from + j
		if lp.ps[i%2].want[(i/2)%n] {
			pos = append(pos, ns)
		} else {
			neg = append(neg, ns)
		}
	}
	lp.set("core.3dreach.pos_p50_us", "us", quantile(pos.micros(), 0.50))
	lp.set("core.3dreach.neg_p50_us", "us", quantile(neg.micros(), 0.50))

	var labels, nodes, entries int64
	for _, k := range lp.sample {
		for d, idx := range pair {
			q := lp.ps[d].q[k]
			_, st := idx.Explain(q.Vertex, q.Region)
			labels += st.Labels
			nodes += st.IndexNodes + st.IndexLeaves
			entries += st.IndexEntries
		}
	}
	per := float64(2 * len(lp.sample))
	lp.set("core.3dreach.labels_per_query", "count", float64(labels)/per)
	lp.set("core.3dreach.index_nodes_per_query", "count", float64(nodes)/per)
	lp.set("core.3dreach.index_entries_per_query", "count", float64(entries)/per)

	lp.set("core.3dreach.allocs_per_query", "count", allocsPer(len(lp.sample)*2, func() {
		for _, k := range lp.sample {
			for d, idx := range pair {
				q := lp.ps[d].q[k]
				idx.RangeReach(q.Vertex, q.Region)
			}
		}
	}))
}

// allocsPer runs f, which performs n operations, and returns heap
// allocations per operation, process-wide.
func allocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// planner compares Auto with its own members on the same pool. These
// stay layer metrics until routing is stable: a default-configured Auto
// differs between identical slices by tens of percent.
func (lp *layerPass) planner(built map[string][2]*rr.Index, qps map[string]float64) {
	auto := built[rr.MethodAuto.String()]
	members := auto[gowalla].PlannerMembers()
	best := 0.0
	for _, name := range members {
		best = math.Max(best, qps[name])
	}
	lp.set("planner.auto.vs_best_member", "ratio", best/qps[rr.MethodAuto.String()])

	// Which member is fastest on a query is measured, not modelled: the
	// faster of two runs of each, on 1,024 sampled queries.
	hits, total := 0, 0
	for j, k := range lp.sample {
		if total == 1024 {
			break
		}
		d := j % 2
		q := lp.ps[d].q[k]
		fastest, fastestT := "", time.Duration(math.MaxInt64)
		for _, name := range members {
			idx := built[name][d]
			if idx == nil {
				continue
			}
			for rep := 0; rep < 2; rep++ {
				t := time.Now()
				idx.RangeReach(q.Vertex, q.Region)
				if el := time.Since(t); el < fastestT {
					fastest, fastestT = name, el
				}
			}
		}
		_, st := auto[d].Explain(q.Vertex, q.Region)
		if st.Plan != nil && st.Plan.Method == fastest {
			hits++
		}
		total++
	}
	lp.set("planner.auto.route_hit_ratio", "ratio", float64(hits)/float64(total))

	lo, hi := math.Inf(1), 0.0
	for s := 0; s < 5; s++ {
		t := time.Now()
		ops, _ := libLoop(auto[:], lp.ps[:], s*len(lp.sample), lp.probe, false, nil, lp.res)
		q := float64(ops) / time.Since(t).Seconds()
		lo, hi = math.Min(lo, q), math.Max(hi, q)
	}
	lp.set("planner.auto.qps_spread", "ratio", hi/lo)
}

// ---- rangereach (batch API) ----

func (lp *layerPass) batch(idx *rr.Index) error {
	p := lp.ps[gowalla]
	qs, want := p.q, p.want
	if len(qs) > 16384 {
		qs, want = qs[:16384], want[:16384]
	}
	for _, par := range []struct {
		name string
		j    int
	}{{"rangereach.batch_qps_j1", 1}, {"rangereach.batch_qps_jN", runtime.GOMAXPROCS(0)}} {
		t := time.Now()
		got := idx.RangeReachBatch(qs, par.j)
		lp.set(par.name, "1/s", float64(len(qs))/time.Since(t).Seconds())
		for i := range got {
			lp.res.attempted++
			if got[i] != want[i] {
				lp.res.fail("batch j=%d query %d: got %v, oracle says %v", par.j, i, got[i], want[i])
			}
		}
	}
	return nil
}

// ---- flatbuf (save, load, map) ----

func (lp *layerPass) flatbuf(idx *rr.Index) error {
	net := lp.nets[gowalla]
	path := filepath.Join(lp.cfg.dir, "layer-3dreach.idx")
	t := time.Now()
	if err := idx.SaveFile(path); err != nil {
		return err
	}
	lp.set("flatbuf.save_ms", "ms", ms(time.Since(t)))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	lp.set("flatbuf.file_bytes", "B", float64(fi.Size()))

	t = time.Now()
	if _, err := net.LoadIndexFile(path); err != nil {
		return err
	}
	lp.set("flatbuf.load_ms", "ms", ms(time.Since(t)))

	var mapped *rr.Index
	var openTime time.Duration
	allocs := allocsPer(1, func() {
		t := time.Now()
		mapped, err = net.OpenMapped(path)
		openTime = time.Since(t)
	})
	if err != nil {
		return err
	}
	defer mapped.Close()
	lp.set("flatbuf.open_mapped_ms", "ms", ms(openTime))
	lp.set("flatbuf.open_mapped_allocs", "count", allocs)
	q := lp.ps[gowalla].q[lp.sample[0]]
	t = time.Now()
	mapped.RangeReach(q.Vertex, q.Region)
	lp.set("flatbuf.first_query_us", "us", us(time.Since(t)))
	lp.set("flatbuf.mapped_qps", "1/s", lp.engineProbe([]*rr.Index{mapped}, lp.ps[:1]).qps)

	geo, err := net.Build(rr.GeoReach)
	if err != nil {
		return err
	}
	geoPath := filepath.Join(lp.cfg.dir, "layer-georeach.idx")
	if err := geo.SaveFile(geoPath); err != nil {
		return err
	}
	t = time.Now()
	geoMapped, err := net.OpenMapped(geoPath)
	if err != nil {
		return err
	}
	lp.set("flatbuf.georeach_open_mapped_ms", "ms", ms(time.Since(t)))
	return geoMapped.Close()
}

// ---- incr ----

// incr runs a third of the churn workload's fixed work and prints the
// writer/reader split behind its end-to-end numbers.
func (lp *layerPass) incr(*rr.Index) error {
	cfg := lp.cfg
	cfg.setups = 1
	cfg.epochs = (cfg.epochs + 2) / 3
	w, _ := workloadByName("churn")
	b, err := w.prepare(w, cfg)
	if err != nil {
		return err
	}
	r, det, err := b.(*churnBench).measureDetail(cfg, nil)
	if err != nil {
		return err
	}
	lp.res.absorb(r)
	staticP99, err := det.staticProbeP99()
	if err != nil {
		return err
	}
	lp.set("incr.build_ms", "ms", r.metrics["setup_s"].Value*1e3)
	for k := opAddEdge; k <= opAddVenue; k++ {
		per := 0.0
		if det.opCount[k] > 0 {
			per = us(det.opTime[k]) / float64(det.opCount[k])
		}
		lp.set("incr.op_us."+opNames[k], "us", per)
	}
	lp.set("incr.snapshot_ms", "ms", ms(det.snapTime)/float64(det.epochs))
	lp.set("incr.publish_share", "ratio", float64(det.snapTime)/float64(det.writeTime()))
	lp.set("incr.update_ops_per_s", "1/s", det.updateRate())
	lp.set("incr.probe_qps", "1/s", det.probeRate())
	n := len(det.probes)
	lp.set("incr.probe_p50_us", "us", quantile(latencies(det.probes).micros(), 0.50))
	lp.set("incr.probe_p99_us.first_quarter", "us", quantile(latencies(det.probes[:n/4]).micros(), 0.99))
	lp.set("incr.probe_p99_us.last_quarter", "us", quantile(latencies(det.probes[n-n/4:]).micros(), 0.99))
	lp.set("incr.static_probe_p99_us", "us", staticP99)
	lp.set("incr.merges", "count", float64(det.stats.Merges))
	lp.set("incr.splits", "count", float64(det.stats.Splits))
	lp.set("incr.cone_relabels", "count", float64(det.stats.ConeRelabels))
	lp.set("incr.relabeled_comps", "count", float64(det.stats.RelabeledComps))
	lp.set("incr.folds", "count", float64(det.stats.Folds))
	lp.set("incr.full_rebuilds", "count", float64(det.stats.FullRebuilds))
	lp.set("incr.memory_bytes_end", "B", float64(det.memory))
	return nil
}

// ---- server, http, router, shard: the serving depths ----

// inproc calls a handler tree without a socket.
type inproc struct {
	h   http.Handler
	req *http.Request
	rd  bytes.Reader
	hdr http.Header
	buf bytes.Buffer
	sc  int
}

func newInproc(h http.Handler) *inproc {
	req, err := http.NewRequest(http.MethodPost, "http://inproc/", nil)
	if err != nil {
		panic(err) // the URL is a constant
	}
	req.Header.Set("Content-Type", "application/json")
	return &inproc{h: h, req: req, hdr: http.Header{}}
}

func (p *inproc) Header() http.Header         { return p.hdr }
func (p *inproc) Write(b []byte) (int, error) { return p.buf.Write(b) }
func (p *inproc) WriteHeader(code int)        { p.sc = code }

// do serves one request and returns the response body, valid until the
// next call.
func (p *inproc) do(method, path string, body []byte) ([]byte, error) {
	p.rd.Reset(body)
	p.req.Method, p.req.URL.Path = method, path
	p.req.Body, p.req.ContentLength = io.NopCloser(&p.rd), int64(len(body))
	p.buf.Reset()
	p.sc = http.StatusOK
	p.h.ServeHTTP(p, p.req)
	if p.sc != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, p.sc, bytes.TrimSpace(p.buf.Bytes()))
	}
	return p.buf.Bytes(), nil
}

func (p *inproc) query(body []byte) (reply, error) {
	var rep reply
	b, err := p.do(http.MethodPost, "/v1/query", body)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(b, &rep)
}

// asker puts pool query k to some depth of the system.
type asker func(k int) (reply, error)

// depthStats is one replay of the sample at one depth.
type depthStats struct {
	lat    []time.Duration // by sample position
	cached []bool
	shards int64
}

func (d depthStats) micros(keep func(j int) bool) []float64 {
	var l latencies
	for j, x := range d.lat {
		if keep == nil || keep(j) {
			l = append(l, nanos(x))
		}
	}
	return l.micros()
}

// replay puts every sampled query to ask, in order, from one goroutine,
// checks the answers, and records a span per query.
func (lp *layerPass) replay(name, parent string, ask asker) depthStats {
	p := lp.ps[gowalla]
	d := depthStats{lat: make([]time.Duration, len(lp.sample)), cached: make([]bool, len(lp.sample))}
	for j, k := range lp.sample {
		t := time.Now()
		rep, err := ask(k)
		end := time.Now()
		lp.spans.add(j, name, parent, t, end)
		d.lat[j], d.cached[j] = end.Sub(t), rep.Cached
		d.shards += int64(rep.Shards)
		lp.res.attempted++
		if err != nil {
			lp.res.fail("%s depth, query %d: %v", name, k, err)
		} else if rep.Reachable != p.want[k] {
			lp.res.fail("%s depth, query %d: got %v, oracle says %v", name, k, rep.Reachable, p.want[k])
		}
	}
	return d
}

// selfMedian is the median over queries of an outer depth's span minus
// its child depth's: the outer layer's own cost.
func selfMedian(outer, inner depthStats) float64 {
	self := make([]float64, len(outer.lat))
	for j := range self {
		self[j] = us(outer.lat[j] - inner.lat[j])
	}
	return median(self)
}

type batchBody struct {
	Queries []queryBody `json:"queries"`
}

// batchPerQuery posts 16 batches of 256 sampled queries to /v1/batch and
// returns the median cost per query.
func (lp *layerPass) batchPerQuery(h *inproc) (float64, error) {
	const size = 256
	p := lp.ps[gowalla]
	var per []float64
	for b := 0; b < 16 && (b+1)*size <= len(lp.sample); b++ {
		ks := lp.sample[b*size : (b+1)*size]
		var body batchBody
		for _, k := range ks {
			q := p.q[k]
			body.Queries = append(body.Queries, queryBody{Vertex: q.Vertex,
				Region: [4]float64{q.Region.MinX, q.Region.MinY, q.Region.MaxX, q.Region.MaxY}})
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		out, err := h.do(http.MethodPost, "/v1/batch", raw)
		el := time.Since(t)
		if err != nil {
			return 0, err
		}
		var rep struct {
			Results []bool `json:"results"`
		}
		if err := json.Unmarshal(out, &rep); err != nil || len(rep.Results) != size {
			return 0, fmt.Errorf("/v1/batch: %d results, err %v", len(rep.Results), err)
		}
		for i, k := range ks {
			lp.res.attempted++
			if rep.Results[i] != p.want[k] {
				lp.res.fail("/v1/batch query %d: got %v, oracle says %v", k, rep.Results[i], p.want[k])
			}
		}
		per = append(per, us(el)/size)
	}
	if len(per) == 0 {
		return 0, fmt.Errorf("sample of %d is too small for one batch of %d", len(lp.sample), size)
	}
	return median(per), nil
}

// servingDepths is what the inner serving depths hand to the outer ones.
type servingDepths struct {
	core, srv       depthStats
	hitP50, missP50 float64 // the handler's cost on a cache hit and on a miss
}

// serving replays the sample at every nesting depth — core → server
// (handler, no socket) → http (loopback) → router (handler, shards over
// loopback) → router-http — and derives each serving layer's metrics.
func (lp *layerPass) serving(idx *rr.Index) error {
	p := lp.ps[gowalla]
	var d servingDepths
	d.core = lp.replay("core", "server", func(k int) (reply, error) {
		q := p.q[k]
		return reply{Reachable: idx.RangeReach(q.Vertex, q.Region)}, nil
	})
	if err := lp.serverDepth(idx, &d); err != nil {
		return err
	}
	if err := lp.httpDepth(idx, &d); err != nil {
		return err
	}
	return lp.routerDepths()
}

// post adapts a body-taking call to an asker over the gowalla pool.
func (lp *layerPass) post(q func([]byte) (reply, error)) asker {
	return func(k int) (reply, error) { return q(lp.ps[gowalla].bodies[k]) }
}

// clock puts pool queries ks to q one at a time, outside the span
// record, and returns the latencies of the calls that succeeded.
func (lp *layerPass) clock(ks []int, q func([]byte) (reply, error)) latencies {
	var lat latencies
	for _, k := range ks {
		t := time.Now()
		if _, err := q(lp.ps[gowalla].bodies[k]); err == nil {
			lat = append(lat, nanos(time.Since(t)))
		}
	}
	return lat
}

var errMiss = errors.New("not a cache hit")

// serverDepth: the handler tree, no socket, cold cache.
func (lp *layerPass) serverDepth(idx *rr.Index, d *servingDepths) error {
	f, err := serveIndex(idx)
	if err != nil {
		return err
	}
	defer f.close()
	h := newInproc(f.srv.Handler())
	allocs := allocsPer(len(lp.sample), func() { d.srv = lp.replay("server", "http", lp.post(h.query)) })
	hits := 0
	for _, c := range d.srv.cached {
		if c {
			hits++
		}
	}
	// The cache now holds the newest keys, so the tail replays as hits.
	tail := lp.sample
	if len(tail) > 1024 {
		tail = tail[len(tail)-1024:]
	}
	hit := lp.clock(tail, func(body []byte) (reply, error) {
		rep, err := h.query(body)
		if err == nil && !rep.Cached {
			err = errMiss
		}
		return rep, err
	})
	d.hitP50 = quantile(hit.micros(), 0.50)
	d.missP50 = quantile(d.srv.micros(func(j int) bool { return !d.srv.cached[j] }), 0.50)
	lp.set("server.handler_hit_p50_us", "us", d.hitP50)
	lp.set("server.handler_miss_p50_us", "us", d.missP50)
	lp.set("server.handler_p99_us", "us", quantile(d.srv.micros(nil), 0.99))
	lp.set("server.handler_allocs_per_op", "count", allocs)
	lp.set("server.cache_hit_ratio", "ratio", float64(hits)/float64(len(lp.sample)))
	perQuery, err := lp.batchPerQuery(h)
	if err != nil {
		return err
	}
	lp.set("server.batch_us_per_query", "us", perQuery)
	return nil
}

var nullReply = []byte(`{"reachable":true,"cached":false,"gen":0,"micros":0}` + "\n")

// httpDepth: loopback to rrserve, and what the depths so far add up to.
func (lp *layerPass) httpDepth(idx *rr.Index, d *servingDepths) error {
	p := lp.ps[gowalla]
	// The floor first — the same client against a canned reply, the round
	// trip no change to this repository can beat.
	null, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a null server still has to drain the request
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(nullReply) // a client that hung up is the client's failure, counted there
	}))
	if err != nil {
		return err
	}
	nullClient := newClient(null.url)
	var nullLat latencies
	nullAllocs := allocsPer(len(lp.sample), func() { nullLat = lp.clock(lp.sample, nullClient.query) })
	nullClient.close()
	null.close()
	lp.set("http.null_rtt_p50_us", "us", quantile(nullLat.micros(), 0.50))
	lp.set("http.null_allocs_per_op", "count", nullAllocs)

	f, err := serveIndex(idx)
	if err != nil {
		return err
	}
	defer f.close()
	c := newClient(f.ln.url)
	defer c.close()
	httpD := lp.replay("http", "router", lp.post(c.query))

	// The served workload's own shape — two clients, Zipf — on another
	// cold server: what the depths above should add up to.
	g, err := serveIndex(idx)
	if err != nil {
		return err
	}
	defer g.close()
	zipf := draws(lp.cfg, p, true)
	closedLoop(g.ln.url, p, zipf, lp.cfg.warm/2, lp.cfg.warm/2, nil)
	loop := closedLoop(g.ln.url, p, zipf, 5*lp.probe, lp.probe, nil)
	_, servedP50, _, _ := loop.summarize(lp.probe)
	lp.res.attempted += loop.attempted
	lp.res.failed += loop.failed
	ratio := float64(loop.cached) / float64(loop.attempted)
	lp.set("http.served_self_us", "us", servedP50-(ratio*d.hitP50+(1-ratio)*d.missP50))
	lp.set("check.layers_sum_ratio", "ratio",
		(median(d.core.micros(nil))+selfMedian(d.srv, d.core)+selfMedian(httpD, d.srv))/servedP50)
	return nil
}

// routerDepths: the router handler with shards over loopback, then the
// router over loopback too; and the shard map they stand on.
func (lp *layerPass) routerDepths() error {
	cl, err := setupCluster(lp.cfg)
	if err != nil {
		return err
	}
	defer cl.close()
	lp.set("shard.partition_ms", "ms", ms(cl.partition))
	most, all := 0, 0
	for _, s := range cl.asn.Shards {
		all += s.Venues
		if s.Venues > most {
			most = s.Venues
		}
	}
	lp.set("shard.venue_imbalance", "ratio", float64(most)*float64(len(cl.asn.Shards))/float64(all))

	// One direct shard call: the sample straight at a shard's listener.
	direct := newClient(cl.backends[0].url)
	directLat := lp.clock(lp.sample, direct.query)
	direct.close()

	h := newInproc(cl.router.Handler())
	before, err := routerCounters(h)
	if err != nil {
		return err
	}
	var rt depthStats
	allocs := allocsPer(len(lp.sample), func() { rt = lp.replay("router", "router-http", lp.post(h.query)) })
	after, err := routerCounters(h)
	if err != nil {
		return err
	}
	n := float64(len(lp.sample))
	rtP50 := quantile(rt.micros(nil), 0.50)
	lp.set("router.query_p50_us", "us", rtP50)
	lp.set("router.self_us", "us", rtP50-quantile(directLat.micros(), 0.50))
	lp.set("router.shards_per_query", "count", float64(rt.shards)/n)
	lp.set("router.pruned_ratio", "ratio", (after.pruned-before.pruned)/(n*clusterShards))
	lp.set("router.early_exit_ratio", "ratio", (after.earlyExits-before.earlyExits)/n)
	lp.set("router.allocs_per_query", "count", allocs)
	perQuery, err := lp.batchPerQuery(h)
	if err != nil {
		return err
	}
	lp.set("router.batch_us_per_query", "us", perQuery)

	c := newClient(cl.front.url)
	defer c.close()
	lp.replay("router-http", "", lp.post(c.query))
	return nil
}

type routerTotals struct{ pruned, earlyExits float64 }

// routerCounters reads two totals off the router's /metrics.
func routerCounters(h *inproc) (routerTotals, error) {
	var t routerTotals
	body, err := h.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return t, err
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var dst *float64
		switch name {
		case "rr_router_pruned_shards_total":
			dst = &t.pruned
		case "rr_router_early_exits_total":
			dst = &t.earlyExits
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return t, fmt.Errorf("router /metrics: %s: %w", name, err)
		}
		found++
	}
	if found != 2 {
		return t, fmt.Errorf("router /metrics: found %d of 2 counters", found)
	}
	return t, nil
}
