// Command rrload is an open-loop load harness for rrrouter and rrserve.
// It fires /v1/query requests on a fixed schedule — arrivals do not
// wait for earlier responses — and measures each latency from the
// request's *intended* send time, so a stalled server inflates the
// reported percentiles instead of silently slowing the offered rate
// (no coordinated omission).
//
// Usage:
//
//	rrload -target http://127.0.0.1:8080 -rate 500 -duration 30s
//	rrload -target ... -zipf-s 1.3 -hot-frac 0.5 -slo 50ms -fail-on-error
//	rrload -target ... -rate 200 -update-rate 50 -fail-on-error
//
// The workload skews like production traffic: vertex popularity is
// zipfian (a random rank-to-vertex mapping keeps hot vertices spread
// across the id space) and -hot-frac sends that fraction of queries
// into a small hot sub-region of the space. Vertex count and spatial
// extent are discovered from the target's /healthz and can be
// overridden with -vertices / -space.
//
// -update-rate N runs a concurrent update stream against the same
// target's /v1/update (rrserve -dynamic, or rrrouter fronting dynamic
// shards) while the query load is in flight. Unlike the query stream
// it is closed-loop — each op waits for its response, because later
// ops depend on earlier answers (deletes target edges the stream
// added, moves target venues it created, new vertex ids widen the id
// space). The stream asserts that the published generation in every
// response is non-decreasing; a regression fails the run regardless
// of -fail-on-error, since it means readers saw time go backwards.
//
// -json emits the report as a single "rrload/v1" JSON document on
// stdout: achieved rate, per-outcome counts (ok, status_NNN, timeout,
// network, decode), exact percentiles from the full sample set, and
// the SLO verdict. Update-stream fields (updates, update_errors,
// last_gen, gen_monotonic) are additive, so the schema stays v1. -trace sends a W3C traceparent with every request
// so a fronting rrrouter collects all of them, then fetches the
// slowest request's stitched trace from /v1/trace/{id} and prints the
// per-shard breakdown (to stderr under -json, keeping stdout machine
// readable).
//
// Exit status: 0 on success, 1 when -slo is exceeded or -fail-on-error
// saw request errors, 2 on usage errors.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpjson"
	"repro/internal/trace"
)

// reportSchema names the -json wire format so downstream tooling can
// reject a report produced by an incompatible rrload.
const reportSchema = "rrload/v1"

type report struct {
	Schema       string        `json:"schema"`
	Target       string        `json:"target"`
	Rate         float64       `json:"rate_rps"`
	Duration     time.Duration `json:"duration_ns"`
	Sent         int           `json:"sent"`
	OK           int           `json:"ok"`
	Errors       int           `json:"errors"`
	Positives    int           `json:"positives"`
	AchievedRate float64       `json:"achieved_rps"`
	// Outcomes counts every request by disposition: "ok", "status_NNN"
	// (non-200 HTTP answer), "timeout" (client deadline), "network"
	// (dial/transport failure), "decode" (unparseable 200 body). The
	// values always sum to Sent.
	Outcomes map[string]int64 `json:"outcomes"`
	// Latency summarizes successful requests only; failures are counted
	// in Errors, not mixed into the percentiles.
	Latency       summary       `json:"latency"`
	MaxSchedLag   time.Duration `json:"max_sched_lag_ns"`
	SLO           time.Duration `json:"slo_ns,omitempty"`
	SLOViolated   bool          `json:"slo_violated"`
	ErrorExamples []string      `json:"error_examples,omitempty"`
	// SlowestTraceID is the trace id of the slowest request when -trace
	// is on; fetch it from the router's /v1/trace/{id} for the stitched
	// per-shard breakdown.
	SlowestTraceID string `json:"slowest_trace_id,omitempty"`
	// Update-stream fields, populated when -update-rate > 0. These are
	// additive to the v1 schema: a plain query run omits them.
	Updates        int              `json:"updates,omitempty"`
	UpdateErrors   int              `json:"update_errors,omitempty"`
	UpdateOutcomes map[string]int64 `json:"update_outcomes,omitempty"`
	LastGen        uint64           `json:"last_gen,omitempty"`
	// GenMonotonic is false when any update response reported a lower
	// generation than an earlier one — a serving bug, and an exit-1
	// condition independent of -fail-on-error. True when no updates ran.
	GenMonotonic bool `json:"gen_monotonic"`
}

func main() {
	var (
		target   = flag.String("target", "http://127.0.0.1:8080", "rrrouter or rrserve base URL")
		rate     = flag.Float64("rate", 200, "offered request rate per second (open loop)")
		duration = flag.Duration("duration", 10*time.Second, "test length")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request client timeout")
		vertices = flag.Int("vertices", 0, "vertex id space (0 = discover from /healthz)")
		spaceStr = flag.String("space", "", "query space minx,miny,maxx,maxy (default: discover from /healthz)")
		extent   = flag.Float64("extent", 0.05, "query region side length as a fraction of the space")
		zipfS    = flag.Float64("zipf-s", 1.2, "zipf exponent for vertex popularity (must be > 1)")
		hotFrac  = flag.Float64("hot-frac", 0, "fraction of queries aimed at the hot sub-region")
		hotSize  = flag.Float64("hot-size", 0.1, "hot sub-region side length as a fraction of the space")
		seed     = flag.Int64("seed", 1, "workload seed")
		wait     = flag.Duration("wait", 0, "poll target /healthz for up to this long before starting")
		slo      = flag.Duration("slo", 0, "exit 1 when p99 latency exceeds this (0 disables)")
		failErr  = flag.Bool("fail-on-error", false, "exit 1 when any request fails")
		jsonOut  = flag.Bool("json", false, "emit the report as rrload/v1 JSON on stdout")
		doTrace  = flag.Bool("trace", false, "send a traceparent with every request and print the slowest request's stitched trace (target must be rrrouter)")
		updRate  = flag.Float64("update-rate", 0, "offered update ops per second against /v1/update while queries run (0 disables; target must serve a dynamic index)")
	)
	flag.Parse()

	if *rate <= 0 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "rrload: -rate and -duration must be positive")
		os.Exit(2)
	}
	if *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "rrload: -zipf-s must be > 1")
		os.Exit(2)
	}
	base := strings.TrimRight(*target, "/")

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
			IdleConnTimeout:     90 * time.Second,
		},
	}

	if *wait > 0 {
		if err := httpjson.WaitHealthy(client, *wait, base); err != nil {
			fmt.Fprintf(os.Stderr, "rrload: %v\n", err)
			os.Exit(1)
		}
	}

	nv, space, err := discover(client, base, *vertices, *spaceStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrload: %v\n", err)
		os.Exit(1)
	}

	payloads := buildPayloads(workload{
		vertices: nv,
		space:    space,
		extent:   *extent,
		zipfS:    *zipfS,
		hotFrac:  *hotFrac,
		hotSize:  *hotSize,
		seed:     *seed,
		n:        int(*rate * duration.Seconds()),
	})
	if len(payloads) == 0 {
		fmt.Fprintln(os.Stderr, "rrload: rate*duration yields zero requests")
		os.Exit(2)
	}

	var (
		updSt   updateStats
		updStop chan struct{}
		updDone chan struct{}
	)
	if *updRate > 0 {
		updStop, updDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(updDone)
			updSt = runUpdates(client, base, *updRate, nv, space, *seed, updStop)
		}()
	}

	rep := run(client, base+"/v1/query", payloads, *rate, *doTrace)
	rep.GenMonotonic = true
	if *updRate > 0 {
		close(updStop)
		<-updDone
		rep.Updates = updSt.sent
		rep.UpdateErrors = updSt.errors
		rep.UpdateOutcomes = updSt.outcomes
		rep.LastGen = updSt.lastGen
		rep.GenMonotonic = updSt.monotonic
		rep.ErrorExamples = append(rep.ErrorExamples, updSt.examples...)
	}
	rep.Schema = reportSchema
	rep.Target = base
	rep.Rate = *rate
	rep.Duration = *duration
	rep.SLO = *slo
	rep.SLOViolated = *slo > 0 && rep.Latency.P99 > *slo

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		fmt.Print(formatReport(rep))
	}

	if *doTrace && rep.SlowestTraceID != "" {
		// Under -json the breakdown goes to stderr so stdout stays a
		// single parseable document.
		out := io.Writer(os.Stdout)
		if *jsonOut {
			out = os.Stderr
		}
		printSlowestTrace(client, base, rep.SlowestTraceID, out)
	}

	switch {
	case !rep.GenMonotonic:
		fmt.Fprintln(os.Stderr, "rrload: update generation regressed — readers observed time going backwards")
		os.Exit(1)
	case rep.SLOViolated:
		fmt.Fprintf(os.Stderr, "rrload: SLO violated: p99 %v > %v\n", rep.Latency.P99, *slo)
		os.Exit(1)
	case *failErr && (rep.Errors > 0 || rep.UpdateErrors > 0):
		fmt.Fprintf(os.Stderr, "rrload: %d query errors, %d update errors\n", rep.Errors, rep.UpdateErrors)
		os.Exit(1)
	}
}

// workload parameterizes payload generation.
type workload struct {
	vertices int
	space    [4]float64
	extent   float64
	zipfS    float64
	hotFrac  float64
	hotSize  float64
	seed     int64
	n        int
}

// buildPayloads pre-marshals every request body so the hot loop does no
// allocation-heavy JSON work that would distort latency measurements.
func buildPayloads(w workload) [][]byte {
	rng := rand.New(rand.NewSource(w.seed))
	zipf := rand.NewZipf(rng, w.zipfS, 1, uint64(w.vertices-1))
	// The zipf draw returns a popularity *rank*; a random permutation
	// maps ranks to vertex ids so the hot set is not just ids 0..k.
	rankToVertex := rng.Perm(w.vertices)

	width := w.space[2] - w.space[0]
	height := w.space[3] - w.space[1]
	rw, rh := width*w.extent, height*w.extent
	// Hot region anchored at a random offset, once per run.
	hw, hh := width*w.hotSize, height*w.hotSize
	hx := w.space[0] + rng.Float64()*(width-hw)
	hy := w.space[1] + rng.Float64()*(height-hh)

	payloads := make([][]byte, w.n)
	for i := range payloads {
		var x, y float64
		if rng.Float64() < w.hotFrac {
			x = hx + rng.Float64()*(hw-min(rw, hw))
			y = hy + rng.Float64()*(hh-min(rh, hh))
		} else {
			x = w.space[0] + rng.Float64()*(width-rw)
			y = w.space[1] + rng.Float64()*(height-rh)
		}
		body, err := json.Marshal(httpjson.QueryRequest{
			Vertex: rankToVertex[int(zipf.Uint64())],
			Region: [4]float64{x, y, x + rw, y + rh},
		})
		if err != nil {
			panic(err) // struct marshal cannot fail
		}
		payloads[i] = body
	}
	return payloads
}

// run fires payloads on the open-loop schedule and aggregates results.
// Each request's latency clock starts at its scheduled send time: if
// the harness (or the server) falls behind, the delay is charged to the
// measurement rather than hidden by a slowed arrival rate.
func run(client *http.Client, url string, payloads [][]byte, rate float64, traced bool) report {
	interval := time.Duration(float64(time.Second) / rate)
	type outcome struct {
		latency time.Duration
		lag     time.Duration
		kind    string // "ok", "status_NNN", "timeout", "network", "decode"
		pos     bool
		errMsg  string
		traceID string
	}
	results := make([]outcome, len(payloads))
	start := time.Now().Add(50 * time.Millisecond) // headroom so request 0 is not late by construction
	var wg sync.WaitGroup
	for i := range payloads {
		sched := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(sched))
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			results[i].lag = time.Since(sched)
			req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payloads[i]))
			if err != nil {
				results[i].kind, results[i].errMsg = "network", err.Error()
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if traced {
				// Every request gets its own trace id; a fronting
				// rrrouter treats the header as a forced trace and
				// retains the stitched result in its ring.
				tid := trace.NewTraceID()
				req.Header.Set(trace.TraceparentHeader, trace.FormatTraceparent(tid, trace.NewSpanID()))
				results[i].traceID = tid
			}
			resp, err := client.Do(req)
			if err != nil {
				results[i].latency = time.Since(sched)
				results[i].kind, results[i].errMsg = errKind(err), err.Error()
				return
			}
			var qr httpjson.RouterQueryReply
			decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&qr)
			_ = resp.Body.Close()
			results[i].latency = time.Since(sched)
			switch {
			case resp.StatusCode != http.StatusOK:
				results[i].kind = "status_" + strconv.Itoa(resp.StatusCode)
				results[i].errMsg = "status " + strconv.Itoa(resp.StatusCode)
			case decErr != nil:
				results[i].kind = "decode"
				results[i].errMsg = "decode: " + decErr.Error()
			default:
				results[i].kind = "ok"
				results[i].pos = qr.Reachable
			}
		}(i, sched)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := report{Sent: len(payloads), Outcomes: make(map[string]int64)}
	// Only successful requests feed the percentile set: a fast failure
	// (connection refused in microseconds) would otherwise deflate
	// p50/p99 and let the -slo gate pass while the backend is falling
	// over. Errors stay visible through the error count.
	latencies := make([]time.Duration, 0, len(results))
	var slowest time.Duration
	for _, r := range results {
		if r.lag > rep.MaxSchedLag {
			rep.MaxSchedLag = r.lag
		}
		rep.Outcomes[r.kind]++
		// The slowest request overall — errored or not — is the one
		// whose stitched trace explains where time went; errored traces
		// are always retained by the router's tail sampler.
		if r.traceID != "" && r.latency >= slowest {
			slowest, rep.SlowestTraceID = r.latency, r.traceID
		}
		switch {
		case r.kind == "ok":
			rep.OK++
			latencies = append(latencies, r.latency)
			if r.pos {
				rep.Positives++
			}
		default:
			rep.Errors++
			if len(rep.ErrorExamples) < 3 {
				rep.ErrorExamples = append(rep.ErrorExamples, r.errMsg)
			}
		}
	}
	rep.Latency = summarize(latencies)
	if wall > 0 {
		rep.AchievedRate = float64(len(payloads)) / wall.Seconds()
	}
	return rep
}

// updateStats aggregates the closed-loop update stream's outcome.
type updateStats struct {
	sent      int
	errors    int
	outcomes  map[string]int64
	lastGen   uint64
	monotonic bool
	examples  []string
}

// runUpdates drives a closed-loop update stream against /v1/update at
// roughly rate ops/sec until stop closes. Closed-loop is deliberate:
// the op mix is stateful — deletes target edges this stream added,
// moves target venues it created, and new vertex ids from add_user /
// add_venue widen the id space for later edges — so each op needs its
// predecessor's answer. If the server can't keep up, the achieved
// update rate degrades instead of requests piling up.
//
// Every 200 response carries the published snapshot generation; the
// stream records the high-water mark and flags any regression, which
// would mean the server published snapshots out of order.
func runUpdates(client *http.Client, base string, rate float64, nv int, space [4]float64, seed int64, stop <-chan struct{}) updateStats {
	st := updateStats{outcomes: make(map[string]int64), monotonic: true}
	rng := rand.New(rand.NewSource(seed + 0x5eed))
	tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer tick.Stop()

	var (
		edges    [][2]int        // edges this stream added and has not yet deleted
		edgeSeen map[[2]int]bool // engines dedup edges, so the tracked set must too
		venues   []int           // venue ids this stream created (safe move targets)
	)
	edgeSeen = make(map[[2]int]bool)
	randPoint := func() (float64, float64) {
		return space[0] + rng.Float64()*(space[2]-space[0]),
			space[1] + rng.Float64()*(space[3]-space[1])
	}

	for {
		select {
		case <-stop:
			return st
		case <-tick.C:
		}

		var body httpjson.UpdateRequest
		switch k := rng.Intn(10); {
		case k < 1:
			body = httpjson.UpdateRequest{Op: "add_user"}
		case k < 3:
			x, y := randPoint()
			body = httpjson.UpdateRequest{Op: "add_venue", X: x, Y: y}
		case k < 5 && len(edges) > 0:
			i := rng.Intn(len(edges))
			e := edges[i]
			edges[i] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			delete(edgeSeen, e)
			body = httpjson.UpdateRequest{Op: "del_edge", From: e[0], To: e[1]}
		case k < 7 && len(venues) > 0:
			x, y := randPoint()
			body = httpjson.UpdateRequest{Op: "move_venue", Vertex: venues[rng.Intn(len(venues))], X: x, Y: y}
		default:
			u, v := rng.Intn(nv), rng.Intn(nv)
			body = httpjson.UpdateRequest{Op: "add_edge", From: u, To: v}
		}

		st.sent++
		buf, err := json.Marshal(body)
		if err != nil {
			panic(err) // struct marshal cannot fail
		}
		resp, err := client.Post(base+"/v1/update", "application/json", bytes.NewReader(buf))
		if err != nil {
			st.errors++
			st.outcomes[errKind(err)]++
			if len(st.examples) < 3 {
				st.examples = append(st.examples, "update: "+err.Error())
			}
			continue
		}
		var ur httpjson.RouterUpdateReply
		decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ur)
		_ = resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusOK:
			st.errors++
			st.outcomes["status_"+strconv.Itoa(resp.StatusCode)]++
			if len(st.examples) < 3 {
				st.examples = append(st.examples, "update "+body.Op+": status "+strconv.Itoa(resp.StatusCode))
			}
		case decErr != nil:
			st.errors++
			st.outcomes["decode"]++
			if len(st.examples) < 3 {
				st.examples = append(st.examples, "update decode: "+decErr.Error())
			}
		default:
			st.outcomes["ok"]++
			if ur.Gen < st.lastGen {
				st.monotonic = false
			}
			if ur.Gen > st.lastGen {
				st.lastGen = ur.Gen
			}
			switch body.Op {
			case "add_user", "add_venue":
				if ur.ID != nil {
					if *ur.ID >= nv {
						nv = *ur.ID + 1
					}
					if body.Op == "add_venue" {
						venues = append(venues, *ur.ID)
					}
				}
			case "add_edge":
				// Engines drop self-loops and duplicate edges, so only a
				// novel non-loop edge is a safe future delete target.
				e := [2]int{body.From, body.To}
				if e[0] != e[1] && !edgeSeen[e] {
					edgeSeen[e] = true
					edges = append(edges, e)
				}
			}
		}
	}
}

// errKind classifies a transport-level failure: a client-side deadline
// reads "timeout", everything else (refused connection, reset, DNS)
// reads "network".
func errKind(err error) string {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "network"
}

// printSlowestTrace fetches the stitched cluster trace of the slowest
// request and prints a per-span breakdown. The router finishes
// early-exit traces asynchronously, so a short retry window covers
// stragglers; a plain rrserve target (no /v1/trace) or an evicted
// entry degrades to a note rather than an error — the load report
// already stood on its own.
func printSlowestTrace(client *http.Client, base, id string, w io.Writer) {
	var ct trace.ClusterTrace
	deadline := time.Now().Add(2 * time.Second)
	for httpjson.Fetch(client, base+"/v1/trace/"+id, &ct) != nil {
		if time.Now().After(deadline) {
			_, _ = fmt.Fprintf(w, "slowest trace %s: not available from %s/v1/trace (target is not rrrouter, or the entry was evicted from the ring)\n", id, base)
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	_, _ = fmt.Fprintf(w, "slowest trace %s endpoint=%s status=%d reason=%s duration=%v spans=%d\n",
		ct.TraceID, ct.Endpoint, ct.Status, ct.Reason, time.Duration(ct.DurationNS), len(ct.Spans))
	for _, sp := range ct.Spans {
		shard := "-"
		if sp.Shard != trace.NoShard {
			shard = strconv.Itoa(sp.Shard)
		}
		_, _ = fmt.Fprintf(w, "  span name=%s tier=%s shard=%s start=%v dur=%v",
			sp.Name, sp.Tier, shard, time.Duration(sp.StartNS), time.Duration(sp.DurationNS))
		if sp.Err != "" {
			_, _ = fmt.Fprintf(w, " err=%q", sp.Err)
		}
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			_, _ = fmt.Fprintf(w, " %s=%s", k, sp.Attrs[k])
		}
		_, _ = fmt.Fprintln(w)
	}
}

func formatReport(r report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "target     %s\n", r.Target)
	fmt.Fprintf(&b, "offered    %.0f req/s for %v (%d requests)\n", r.Rate, r.Duration, r.Sent)
	fmt.Fprintf(&b, "achieved   %.1f req/s\n", r.AchievedRate)
	fmt.Fprintf(&b, "ok         %d (%d positive)\n", r.OK, r.Positives)
	fmt.Fprintf(&b, "errors     %d\n", r.Errors)
	for _, e := range r.ErrorExamples {
		fmt.Fprintf(&b, "  e.g. %s\n", e)
	}
	if len(r.Outcomes) > 1 || r.Errors > 0 {
		kinds := make([]string, 0, len(r.Outcomes))
		for k := range r.Outcomes {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b.WriteString("outcomes  ")
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, r.Outcomes[k])
		}
		b.WriteByte('\n')
	}
	if r.Updates > 0 {
		verdict := "monotonic"
		if !r.GenMonotonic {
			verdict = "REGRESSED"
		}
		fmt.Fprintf(&b, "updates    %d (%d errors) last_gen=%d generation %s\n",
			r.Updates, r.UpdateErrors, r.LastGen, verdict)
	}
	fmt.Fprintf(&b, "latency    p50=%v p95=%v p99=%v p999=%v max=%v\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99, r.Latency.P999, r.Latency.Max)
	fmt.Fprintf(&b, "sched lag  max=%v\n", r.MaxSchedLag)
	if r.SLO > 0 {
		verdict := "met"
		if r.SLOViolated {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(&b, "slo        p99 <= %v: %s\n", r.SLO, verdict)
	}
	return b.String()
}

// discover fills vertex count and space extent from the target's
// /healthz, honoring explicit flag overrides. rrrouter reports both;
// plain rrserve reports only the vertex count, so -space is required
// when load-testing a single shard directly.
func discover(client *http.Client, base string, vertices int, spaceStr string) (int, [4]float64, error) {
	var space [4]float64
	haveSpace := false
	if spaceStr != "" {
		parts := strings.Split(spaceStr, ",")
		if len(parts) != 4 {
			return 0, space, fmt.Errorf("-space wants minx,miny,maxx,maxy, got %q", spaceStr)
		}
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return 0, space, fmt.Errorf("-space: %v", err)
			}
			space[i] = v
		}
		haveSpace = true
	}
	if vertices > 0 && haveSpace {
		return vertices, space, nil
	}

	// rrserve's /healthz has no space; it decodes as zeros.
	var hz httpjson.RouterHealthz
	if err := httpjson.Fetch(client, base+"/healthz", &hz); err != nil {
		return 0, space, fmt.Errorf("discover: %v", err)
	}
	if vertices <= 0 {
		vertices = hz.Vertices
	}
	if !haveSpace {
		space = hz.Space
	}
	if vertices <= 0 {
		return 0, space, fmt.Errorf("target did not report a vertex count; pass -vertices")
	}
	if space[2] <= space[0] || space[3] <= space[1] {
		return 0, space, fmt.Errorf("target did not report a usable space extent; pass -space")
	}
	return vertices, space, nil
}
