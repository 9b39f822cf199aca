package router

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

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

// ask sends vertex 1 over region to the endpoint, "query" or "batch",
// and returns the status plus, on a 200, the answer and its partial
// flag.
func ask(t *testing.T, h http.Handler, endpoint string, region [4]float64) (code int, reachable, partial bool) {
	t.Helper()
	if endpoint == "batch" {
		rec, resp := postBatch(t, h, []queryRequest{{Vertex: 1, Region: region}})
		if rec.Code != http.StatusOK {
			return rec.Code, false, false
		}
		return rec.Code, resp.Results[0], resp.Partial
	}
	rec, resp := postQuery(t, h, 1, region)
	return rec.Code, resp.Reachable, resp.Partial
}

// wantAnswer checks one outcome against the truth, which is positive:
// the faulty shard holds the positive. A live positive is exact; without
// one the answer is a 502 under PolicyFail and a flagged negative under
// PolicyDegrade. A 200 negative without the flag would be wrong.
func wantAnswer(t *testing.T, policy Policy, livePositive bool, code int, reachable, partial bool) {
	t.Helper()
	if code == http.StatusOK && !reachable && !partial {
		t.Fatal("wrong 200: a negative not flagged partial, while the faulty shard holds a positive")
	}
	switch {
	case livePositive:
		if code != http.StatusOK || !reachable || partial {
			t.Fatalf("got %d reachable=%v partial=%v, want an exact positive 200", code, reachable, partial)
		}
	case policy == PolicyFail:
		if code != http.StatusBadGateway {
			t.Fatalf("got %d reachable=%v, want 502", code, reachable)
		}
	default:
		if code != http.StatusOK || reachable || !partial {
			t.Fatalf("got %d reachable=%v partial=%v, want a partial negative 200", code, reachable, partial)
		}
	}
}

// TestFaultBlackHole: a shard that never answers costs the request its
// ShardTimeout and no more, then counts as failed.
func TestFaultBlackHole(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for _, shape := range faultShapes() {
		for _, policy := range []Policy{PolicyFail, PolicyDegrade} {
			for _, ep := range endpoints {
				t.Run(fmt.Sprintf("%s/%v/%s", shape.name, policy, ep), func(t *testing.T) {
					rt, ft := faultCluster(t, shape.m, Config{Policy: policy, ShardTimeout: timeout},
						answerEither(true), answerEither(false))
					ft.set(rt.BackendFor(0), blackHole)
					start := time.Now()
					code, reachable, partial := ask(t, rt.Handler(), ep, shape.region)
					if elapsed := time.Since(start); elapsed < timeout || elapsed > 20*timeout {
						t.Errorf("answered after %v, want about the shard timeout %v", elapsed, timeout)
					}
					wantAnswer(t, policy, false, code, reachable, partial)
				})
			}
		}
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
// when the live shard is positive and never a bare negative otherwise.
func TestFaultResetMidScatter(t *testing.T) {
	scatter := faultShapes()[1]
	for _, live := range []bool{false, true} {
		for _, policy := range []Policy{PolicyFail, PolicyDegrade} {
			for _, ep := range endpoints {
				t.Run(fmt.Sprintf("live-%v/%v/%s", live, policy, ep), func(t *testing.T) {
					rt, ft := faultCluster(t, scatter.m, Config{Policy: policy},
						answerEither(true), answerEither(live))
					ft.set(rt.BackendFor(0), resetAfterWrite)
					code, reachable, partial := ask(t, rt.Handler(), ep, scatter.region)
					wantAnswer(t, policy, live, code, reachable, partial)
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
					code, reachable, partial := ask(t, rt.Handler(), ep, scatter.region)
					if code != http.StatusOK || reachable != slowAnswer || partial {
						t.Fatalf("request %d: got %d reachable=%v partial=%v, want an exact 200 %v", i, code, reachable, partial, slowAnswer)
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
			rt, err := New(Config{Map: testMap(wholeSpace, wholeSpace), Backends: urls, Policy: PolicyFail})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			for i := 0; i < rounds; i++ {
				if code, reachable, partial := ask(t, rt.Handler(), ep, wholeSpace); code != http.StatusOK || reachable || partial {
					t.Fatalf("round %d: got %d reachable=%v partial=%v, want an exact negative 200", i, code, reachable, partial)
				}
				for _, ts := range servers {
					ts.CloseClientConnections()
				}
			}
		})
	}
}
