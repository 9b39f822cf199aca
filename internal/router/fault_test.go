package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/shard"
)

// fault is what the fault transport does to the calls of one backend.
type fault int

const (
	// healthy passes the call through.
	healthy fault = iota
	// blackHole never answers: the call blocks until its context is done.
	blackHole
	// resetAfterWrite delivers the request and loses the reply, failing
	// the call as a connection reset by the peer would.
	resetAfterWrite
	// slowed delays every call by faultTransport.delay, then passes it
	// through.
	slowed
)

// faultTransport wraps a RoundTripper and injects a fault per backend,
// keyed by host:port. It counts the calls each backend is sent.
type faultTransport struct {
	base  http.RoundTripper
	delay time.Duration
	// entered receives, without blocking, once a call is in a black hole.
	entered chan struct{}

	mu     sync.Mutex
	faults map[string]fault
	calls  map[string]int
}

func (ft *faultTransport) set(backend string, f fault) {
	ft.mu.Lock()
	ft.faults[strings.TrimPrefix(backend, "http://")] = f
	ft.mu.Unlock()
}

func (ft *faultTransport) callsTo(backend string) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.calls[strings.TrimPrefix(backend, "http://")]
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	f := ft.faults[req.URL.Host]
	ft.calls[req.URL.Host]++
	ft.mu.Unlock()
	ctx := req.Context()
	switch f {
	case blackHole:
		_ = req.Body.Close()
		select {
		case ft.entered <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	case resetAfterWrite:
		resp, err := ft.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		_ = resp.Body.Close()
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	case slowed:
		timer := time.NewTimer(ft.delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			_ = req.Body.Close()
			return nil, ctx.Err()
		}
	}
	return ft.base.RoundTrip(req)
}

// faultCluster serves handlers[i] as shard i's backend and returns the
// router over them, calling out through a fault transport.
func faultCluster(t *testing.T, m *shard.Map, cfg Config, handlers ...http.Handler) (*Router, *faultTransport) {
	t.Helper()
	base := &http.Transport{}
	t.Cleanup(base.CloseIdleConnections)
	ft := &faultTransport{
		base: base, delay: 30 * time.Millisecond, entered: make(chan struct{}, 1),
		faults: map[string]fault{}, calls: map[string]int{},
	}
	cfg.Map, cfg.Transport = m, ft
	for _, h := range handlers {
		cfg.Backends = append(cfg.Backends, serveShard(t, h))
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, ft
}

// faultShape is how a query reaches the faulty shard 0: alone, by the
// single-shard pass-through, or beside live shard 1 in a scatter.
type faultShape struct {
	name   string
	m      *shard.Map
	region [4]float64
}

func faultShapes() []faultShape {
	return []faultShape{
		{"pass-through", testMap([4]float64{0, 0, 4, 10}, [4]float64{6, 0, 10, 10}), [4]float64{1, 1, 2, 2}},
		{"scatter", testMap(wholeSpace, wholeSpace), wholeSpace},
	}
}

var endpoints = []string{"query", "batch"}

// shardDownRows name the two rows of each failed-shard scenario. The
// fail row checks the decoded answer. The degrade row replays the
// scenario the removed -partial degrade policy answered with a 200
// flagged partial: it checks the same answer, and reads the reply at the
// wire, where no "partial" key may appear again.
var shardDownRows = []string{"fail", "degrade"}

// ask sends vertex 1 over region to the endpoint, "query" or "batch",
// and returns the status plus, on a 200, the answer.
func ask(t *testing.T, h http.Handler, endpoint string, region [4]float64) (code int, reachable bool) {
	t.Helper()
	code, reachable, _ = askWire(t, h, endpoint, region)
	return code, reachable
}

// askWire is ask that also returns the reply body as it was sent.
func askWire(t *testing.T, h http.Handler, endpoint string, region [4]float64) (code int, reachable bool, body []byte) {
	t.Helper()
	if endpoint == "batch" {
		rec, resp := postBatch(t, h, []queryRequest{{Vertex: 1, Region: region}})
		if rec.Code != http.StatusOK {
			return rec.Code, false, rec.Body.Bytes()
		}
		return rec.Code, resp.Results[0], rec.Body.Bytes()
	}
	rec, resp := postQuery(t, h, 1, region)
	return rec.Code, resp.Reachable, rec.Body.Bytes()
}

// checkRow checks one failed-shard outcome for its row of shardDownRows:
// wantAnswer for both, and for the degrade row no "partial" key in the
// reply.
func checkRow(t *testing.T, row string, livePositive bool, code int, reachable bool, body []byte) {
	t.Helper()
	wantAnswer(t, livePositive, code, reachable)
	if row == "degrade" {
		wantNoPartial(t, code, body)
	}
}

// wantAnswer checks one outcome against the truth, which is positive:
// the faulty shard holds the positive. A live positive is exact;
// without one the answer is a 502. A 200 negative would be wrong.
func wantAnswer(t *testing.T, livePositive bool, code int, reachable bool) {
	t.Helper()
	if code == http.StatusOK && !reachable {
		t.Fatal("wrong 200: a negative, while the faulty shard holds a positive")
	}
	switch {
	case livePositive:
		if code != http.StatusOK {
			t.Fatalf("got %d, want an exact positive 200", code)
		}
	case code != http.StatusBadGateway:
		t.Fatalf("got %d reachable=%v, want 502", code, reachable)
	}
}

// TestFaultBlackHole: a shard that never answers costs the request its
// ShardTimeout and no more, then counts as failed.
func TestFaultBlackHole(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for _, shape := range faultShapes() {
		for _, row := range shardDownRows {
			for _, ep := range endpoints {
				t.Run(fmt.Sprintf("%s/%s/%s", shape.name, row, ep), func(t *testing.T) {
					rt, ft := faultCluster(t, shape.m, Config{ShardTimeout: timeout},
						answerEither(true), answerEither(false))
					ft.set(rt.BackendFor(0), blackHole)
					start := time.Now()
					code, reachable, body := askWire(t, rt.Handler(), ep, shape.region)
					if elapsed := time.Since(start); elapsed < timeout || elapsed > 20*timeout {
						t.Errorf("answered after %v, want about the shard timeout %v", elapsed, timeout)
					}
					checkRow(t, row, false, code, reachable, body)
				})
			}
		}
	}
}

// TestFaultBlackHoleRepeated is the breaker's first rule row: a
// black-holed shard costs the first downAfter requests their
// ShardTimeout each, and is then marked down. For the rest of the
// cooldown (the injected clock never moves) it is sent no call, and a
// request that needs it is answered at once. Without the breaker every
// request would wait out the timeout, and the shard would be sent a
// call per request.
func TestFaultBlackHoleRepeated(t *testing.T) {
	const (
		timeout  = 100 * time.Millisecond
		requests = 10
		fast     = 50 * time.Millisecond
	)
	for _, shape := range faultShapes() {
		for _, ep := range endpoints {
			t.Run(shape.name+"/"+ep, func(t *testing.T) {
				rt, ft := faultCluster(t, shape.m, Config{ShardTimeout: timeout},
					answerEither(true), answerEither(false))
				withClock(rt)
				ft.set(rt.BackendFor(0), blackHole)
				for i := 0; i < requests; i++ {
					start := time.Now()
					code, reachable := ask(t, rt.Handler(), ep, shape.region)
					elapsed := time.Since(start)
					wantAnswer(t, false, code, reachable)
					if i >= downAfter && elapsed >= fast {
						t.Fatalf("request %d took %v with shard 0 marked down, want under %v", i+1, elapsed, fast)
					}
				}
				if got := ft.callsTo(rt.BackendFor(0)); got != downAfter {
					t.Fatalf("the black-holed shard was sent %d calls for %d requests, want %d", got, requests, downAfter)
				}
			})
		}
	}
}

// TestFaultFlapping is the breaker's second rule row: a shard that
// fails, keeps failing its trials, then recovers is walked through the
// breaker on an injected clock. Each cooldown ends in exactly one
// half-open probe, also when a second request arrives while the probe
// is in flight; a failed probe re-arms the cooldown; a successful probe
// closes the breaker, and the answers after it are exact.
// rr_router_shard_down and /healthz's down list follow every step.
func TestFaultFlapping(t *testing.T) {
	const timeout = 100 * time.Millisecond
	scatter := faultShapes()[1]
	for _, ep := range endpoints {
		t.Run(ep, func(t *testing.T) {
			rt, ft := faultCluster(t, scatter.m, Config{ShardTimeout: timeout},
				answerEither(true), answerEither(false))
			clk := withClock(rt)
			shard0 := rt.BackendFor(0)
			calls := 0 // what shard 0 must have been sent so far
			// step sends one request and checks its answer, the calls shard
			// 0 has been sent and what an operator sees of its breaker.
			step := func(what string, positive, down bool) {
				t.Helper()
				code, reachable := ask(t, rt.Handler(), ep, scatter.region)
				wantAnswer(t, positive, code, reachable)
				if got := ft.callsTo(shard0); got != calls {
					t.Fatalf("%s: shard 0 was sent %d calls, want %d", what, got, calls)
				}
				wantDown(t, rt, what, down)
			}

			ft.set(shard0, resetAfterWrite)
			for i := 1; i <= downAfter; i++ {
				calls++
				step(fmt.Sprintf("failure %d", i), false, i == downAfter)
			}
			for probe := 1; probe <= 2; probe++ {
				clk.advance(cooldown - time.Millisecond)
				step(fmt.Sprintf("inside cooldown %d", probe), false, true)
				clk.advance(time.Millisecond)
				calls++
				step(fmt.Sprintf("failed probe %d", probe), false, true)
				step(fmt.Sprintf("after failed probe %d", probe), false, true)
			}

			// A probe in flight holds the shard's one trial: a request that
			// arrives meanwhile is not sent to it.
			clk.advance(cooldown)
			ft.set(shard0, blackHole)
			calls++
			path, body := "/v1/query", `{"vertex":1,"region":[0,0,10,10]}`
			if ep == "batch" {
				path, body = "/v1/batch", `{"queries":[`+body+`]}`
			}
			done := make(chan int)
			go func() {
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				done <- rec.Code
			}()
			<-ft.entered
			step("beside the probe in flight", false, true)
			if code := <-done; code != http.StatusBadGateway {
				t.Fatalf("black-holed probe: got %d, want 502", code)
			}
			wantDown(t, rt, "after the black-holed probe", true)

			clk.advance(cooldown)
			ft.set(shard0, healthy)
			calls++
			step("successful probe", true, false)
			for i := 1; i <= 3; i++ {
				calls++
				step(fmt.Sprintf("closed, request %d", i), true, false)
			}
		})
	}
}

// wantDown checks shard 0's breaker as an operator sees it: the
// rr_router_shard_down gauge and /healthz's down list.
func wantDown(t *testing.T, rt *Router, what string, down bool) {
	t.Helper()
	var mb strings.Builder
	if err := rt.Metrics().WritePrometheus(&mb); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseProm(strings.NewReader(mb.String()))
	if err != nil {
		t.Fatal(err)
	}
	gauge, _ := metrics.Value(samples, "rr_router_shard_down", map[string]string{"shard": "0"})
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hz healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("%s: /healthz %q: %v", what, rec.Body, err)
	}
	var wantList []int
	if down {
		wantList = []int{0}
	}
	if (gauge == 1) != down || !slices.Equal(hz.Down, wantList) {
		t.Fatalf("%s: rr_router_shard_down{shard=0} %v, /healthz down %v; want down=%v", what, gauge, hz.Down, down)
	}
}

// TestFaultBlackHoleCancel: a shard call answers its caller's
// cancellation at once, however long its shard would have kept it.
func TestFaultBlackHoleCancel(t *testing.T) {
	for _, shape := range faultShapes() {
		t.Run(shape.name, func(t *testing.T) {
			rt, ft := faultCluster(t, shape.m, Config{ShardTimeout: time.Minute},
				answerEither(true), answerEither(false))
			ft.set(rt.BackendFor(0), blackHole)
			ctx, cancel := context.WithCancel(context.Background())
			body := fmt.Sprintf(`{"vertex":1,"region":[%g,%g,%g,%g]}`, shape.region[0], shape.region[1], shape.region[2], shape.region[3])
			req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)).WithContext(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				rt.Handler().ServeHTTP(httptest.NewRecorder(), req)
			}()
			<-ft.entered
			cancel()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("the request waited for its black-holed shard after it was canceled")
			}
		})
	}
}

// TestFaultResetMidScatter: a shard that takes the request and drops
// the connection before replying fails its call; the answer is exact
// when the live shard is positive and a 502 otherwise.
func TestFaultResetMidScatter(t *testing.T) {
	scatter := faultShapes()[1]
	for _, live := range []bool{false, true} {
		for _, row := range shardDownRows {
			for _, ep := range endpoints {
				t.Run(fmt.Sprintf("live-%v/%s/%s", live, row, ep), func(t *testing.T) {
					rt, ft := faultCluster(t, scatter.m, Config{},
						answerEither(true), answerEither(live))
					ft.set(rt.BackendFor(0), resetAfterWrite)
					code, reachable, body := askWire(t, rt.Handler(), ep, scatter.region)
					checkRow(t, row, live, code, reachable, body)
				})
			}
		}
	}
}

// TestFaultSlowShard: a shard slowed on every call still gives the
// exact answer, and is sent exactly one call per request.
func TestFaultSlowShard(t *testing.T) {
	const requests = 4
	scatter := faultShapes()[1]
	for _, slowAnswer := range []bool{false, true} {
		for _, ep := range endpoints {
			t.Run(fmt.Sprintf("answer-%v/%s", slowAnswer, ep), func(t *testing.T) {
				rt, ft := faultCluster(t, scatter.m, Config{}, answerEither(slowAnswer), answerEither(false))
				ft.set(rt.BackendFor(0), slowed)
				for i := 0; i < requests; i++ {
					code, reachable := ask(t, rt.Handler(), ep, scatter.region)
					if code != http.StatusOK || reachable != slowAnswer {
						t.Fatalf("request %d: got %d reachable=%v, want an exact 200 %v", i, code, reachable, slowAnswer)
					}
				}
				if got := ft.callsTo(rt.BackendFor(0)); got != requests {
					t.Fatalf("the slow shard was sent %d calls for %d requests", got, requests)
				}
			})
		}
	}
}

// TestFaultRestartStaleConnection: backends that close every
// connection between two requests, as a restart does, leave the
// router's pool holding stale connections; the next request is still
// answered.
func TestFaultRestartStaleConnection(t *testing.T) {
	const rounds = 50
	for _, ep := range endpoints {
		t.Run(ep, func(t *testing.T) {
			servers := []*httptest.Server{httptest.NewServer(answerEither(false)), httptest.NewServer(answerEither(false))}
			urls := make([]string, len(servers))
			for i, ts := range servers {
				t.Cleanup(ts.Close)
				urls[i] = ts.URL
			}
			rt, err := New(Config{Map: testMap(wholeSpace, wholeSpace), Backends: urls})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			for i := 0; i < rounds; i++ {
				if code, reachable := ask(t, rt.Handler(), ep, wholeSpace); code != http.StatusOK || reachable {
					t.Fatalf("round %d: got %d reachable=%v, want an exact negative 200", i, code, reachable)
				}
				for _, ts := range servers {
					ts.CloseClientConnections()
				}
			}
		})
	}
}
