package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpjson"
	"repro/internal/shard"
	"repro/internal/trace"
)

// countedCluster starts one stub backend per shard, shard i on backend
// i, and returns the router, an installer for per-shard behavior and
// conns(sid): how many connections the backend serving shard sid has
// accepted.
func countedCluster(t *testing.T, m *shard.Map, cfg Config) (rt *Router, install func(sid int, h http.HandlerFunc), conns func(sid int) int64) {
	t.Helper()
	n := m.NumShards()
	swaps := make([]*swapHandler, n)
	accepted := make([]*atomic.Int64, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		count := new(atomic.Int64)
		accepted[i] = count
		ts := httptest.NewUnstartedServer(swaps[i])
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				count.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	cfg.Map, cfg.Backends = m, urls
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	install = func(sid int, h http.HandlerFunc) { swaps[sid].set(h) }
	conns = func(sid int) int64 { return accepted[sid].Load() }
	return rt, install, conns
}

// answerEither answers /v1/query and /v1/batch alike: every query gets
// result.
func answerEither(result bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			answerBatch(result)(w, r)
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		answer(result)(w, r)
	}
}

// TestEarlyExitKeepsConnections: 500 sequential requests that all exit
// early — shard 0 positive, shard 1 negative, healthy and a moment
// later — must not cost shard 1 its connection. Canceling the straggler
// (what the router did before it abandoned them) closes an HTTP/1.1
// connection, and every later call dials again: one accepted connection
// per early exit instead of one for the run.
func TestEarlyExitKeepsConnections(t *testing.T) {
	const requests = 500
	for _, endpoint := range []string{"query", "batch"} {
		t.Run(endpoint, func(t *testing.T) {
			m := testMap(wholeSpace, wholeSpace)
			rt, install, conns := countedCluster(t, m, Config{})
			// Shard 0 answers once shard 1's handler is running, and shard 1
			// as soon as the router has counted the early exit that answer
			// causes: always the straggler, never slow. The winner takes a
			// millisecond, so the grace is 4 ms and not the 1 ms floor: on a
			// box busy with other test binaries a goroutine can wait longer
			// than the floor for a CPU, and that is not what is under test.
			started := make(chan struct{}, 1)
			install(0, func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-started:
					time.Sleep(time.Millisecond)
					answerEither(true)(w, r)
				case <-r.Context().Done():
				}
			})
			install(1, func(w http.ResponseWriter, r *http.Request) {
				var body bytes.Buffer
				_, _ = body.ReadFrom(r.Body) // a disconnect is only seen once the body is read
				r.Body = io.NopCloser(&body)
				seen := rt.mEarlyExit.Value()
				started <- struct{}{}
				for rt.mEarlyExit.Value() == seen {
					if r.Context().Err() != nil {
						return
					}
					// Sleep, not spin: a P that always has a runnable
					// goroutine leaves the network poller to sysmon's 10 ms
					// round, and the router's replies with it.
					time.Sleep(50 * time.Microsecond)
				}
				answerEither(false)(w, r)
			})
			for i := 0; i < requests; i++ {
				if endpoint == "query" {
					if rec, resp := postQuery(t, rt.Handler(), 1, wholeSpace); rec.Code != http.StatusOK || !resp.Reachable {
						t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body.String())
					}
				} else {
					rec, resp := postBatch(t, rt.Handler(), []queryRequest{{Vertex: 1, Region: wholeSpace}})
					if rec.Code != http.StatusOK || !resp.Results[0] {
						t.Fatalf("batch %d: %d %s", i, rec.Code, rec.Body.String())
					}
				}
			}
			rt.Close() // waits for the last straggler
			if got := rt.mEarlyExit.Value(); got != requests {
				t.Fatalf("%d early exits in %d requests", got, requests)
			}
			// A straggler that a busy box holds past its grace is
			// canceled and does cost a connection; that is rare. One per
			// request is the bug.
			const handful = 25
			t.Logf("backends accepted %d and %d connections for %d early exits; %d stragglers answered", conns(0), conns(1), requests, rt.mShardLat[1].Count())
			for sid := 0; sid < 2; sid++ {
				if got := conns(sid); got > handful {
					t.Errorf("shard %d's backend accepted %d connections for %d requests, want at most %d", sid, got, requests, handful)
				}
			}
			if got := rt.mDials.Value(); got != conns(0)+conns(1) {
				t.Errorf("rr_router_backend_dials_total = %d, backends accepted %d", got, conns(0)+conns(1))
			}
			// The stragglers reported as any call does.
			if got := rt.mShardLat[1].Count(); got < requests-handful {
				t.Errorf("shard 1 latency histogram holds %d calls of %d", got, requests)
			}
			if rt.mShardErrs[1].Value() != 0 {
				t.Errorf("shard 1 counted %d errors", rt.mShardErrs[1].Value())
			}
		})
	}
}

// TestEarlyExitTracedStragglerReportsAnswer: a healthy straggler's
// shard_call span carries the answer it gave, not "canceled", and its
// success reaches the shard's health record.
func TestEarlyExitTracedStragglerReportsAnswer(t *testing.T) {
	m := testMap(wholeSpace, wholeSpace)
	rt, install, _ := countedCluster(t, m, Config{})
	// One failure on record, so a later success is visible as the reset.
	install(0, answer(false))
	install(1, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	if rec, _ := postQuery(t, rt.Handler(), 1, wholeSpace); rec.Code != http.StatusBadGateway {
		t.Fatalf("failing query: %d %s", rec.Code, rec.Body.String())
	}
	fails := func() int {
		h := rt.health[1]
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.fails
	}
	if fails() != 1 {
		t.Fatalf("shard 1 has %d failures on record, want 1", fails())
	}

	// A 3 ms winner buys the straggler a 12 ms grace: a loaded box must
	// not turn the one call this test reads into a canceled one.
	install(0, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(3 * time.Millisecond)
		answer(true)(w, r)
	})
	install(1, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a disconnect is only seen once the body is read
		for rt.mEarlyExit.Value() == 0 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(20 * time.Microsecond):
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"reachable":false,"stats":{"method":"stub","labels":7}}`)
	})
	tid := trace.NewTraceID()
	rec, resp := postTracedQuery(t, rt.Handler(), 1, wholeSpace, trace.FormatTraceparent(tid, trace.NewSpanID()))
	if rec.Code != http.StatusOK || !resp.Reachable {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	tr := getTrace(t, rt.Handler(), tid)
	if got := spansNamed(tr, "fanout"); len(got) != 1 || got[0].Attrs["early_exit"] != "true" {
		t.Fatalf("fanout span: %+v", got)
	}
	calls := spansNamed(tr, "shard_call")
	if len(calls) != 2 {
		t.Fatalf("want both shard calls in the trace, got %+v", calls)
	}
	for _, sp := range calls {
		want := map[int]string{0: "true", 1: "false"}[sp.Shard]
		if sp.Err != "" || sp.Attrs["reachable"] != want {
			t.Errorf("shard %d span: err %q reachable %q, want a clean %s", sp.Shard, sp.Err, sp.Attrs["reachable"], want)
		}
		if sp.Shard == 1 && !strings.Contains(string(sp.Stats), `"labels":7`) {
			t.Errorf("straggler's stats not stitched: %q", sp.Stats)
		}
	}
	if fails() != 0 {
		t.Errorf("straggler's success did not reach health: %d failures still on record", fails())
	}
}

// TestCloseWaitsForStragglers: after Close returns, no backend handler
// this router started is still executing — the caller may close what
// those handlers read (a mapped index).
func TestCloseWaitsForStragglers(t *testing.T) {
	m := testMap(wholeSpace, wholeSpace)
	rt, install, _ := countedCluster(t, m, Config{})
	// The winner takes 5 ms, so stragglers have a 20 ms grace; shard 1
	// needs 10 ms: it outlives the handler and is not canceled.
	install(0, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		answer(true)(w, r)
	})
	var executing, finished atomic.Int64
	install(1, func(w http.ResponseWriter, r *http.Request) {
		executing.Add(1)
		defer executing.Add(-1)
		time.Sleep(10 * time.Millisecond)
		answer(false)(w, r)
		finished.Add(1)
	})
	const requests = 8
	for i := 0; i < requests; i++ {
		if rec, resp := postQuery(t, rt.Handler(), 1, wholeSpace); rec.Code != http.StatusOK || !resp.Reachable {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if executing.Load() == 0 {
		t.Fatal("no straggler outlived its request; the test exercises nothing")
	}
	rt.Close()
	if n := executing.Load(); n != 0 {
		t.Fatalf("%d shard handlers still executing after Close returned", n)
	}
	if n := finished.Load(); n != requests {
		t.Fatalf("%d of %d stragglers ran to completion", n, requests)
	}
}

// TestClientDisconnectCancelsScatter: the calls run detached from the
// request's context, so the router must carry a client's disconnect to
// them itself — on every path that calls shards: the scatter, the
// single-shard pass-through, a traced request, a batch and the three
// update fan-outs. A canceled call is not held against its shard.
func TestClientDisconnectCancelsScatter(t *testing.T) {
	query := func(region [4]float64) string {
		return fmt.Sprintf(`{"vertex":1,"region":[%g,%g,%g,%g]}`, region[0], region[1], region[2], region[3])
	}
	for _, tc := range []struct {
		name, path, body, header string
		calls                    int
	}{
		{"scatter", "/v1/query", query(wholeSpace), "", 2},
		{"pass-through", "/v1/query", query([4]float64{0, 0, 1, 1}), "", 1},
		{"traced", "/v1/query", query(wholeSpace), trace.TraceparentHeader + ": " + trace.FormatTraceparent(trace.NewTraceID(), trace.NewSpanID()) + "\r\n", 2},
		{"batch", "/v1/batch", `{"queries":[` + query(wholeSpace) + `]}`, "", 2},
		{"add_user", "/v1/update", `{"op":"add_user"}`, "", 2},
		{"add_venue", "/v1/update", `{"op":"add_venue","x":1,"y":1}`, "", 2},
		{"move_venue", "/v1/update", `{"op":"move_venue","vertex":1,"x":1,"y":1}`, "", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMap([4]float64{0, 0, 4, 4}, [4]float64{6, 6, 10, 10})
			rt, install, _ := countedCluster(t, m, Config{})
			var started sync.WaitGroup
			started.Add(tc.calls)
			canceled := make(chan struct{}, 2)
			for sid := 0; sid < 2; sid++ {
				install(sid, func(w http.ResponseWriter, r *http.Request) {
					_, _ = io.Copy(io.Discard, r.Body)
					started.Done()
					select {
					case <-r.Context().Done():
						canceled <- struct{}{}
					case <-time.After(5 * time.Second): // nobody canceled: the wait below has failed
					}
				})
			}
			front := httptest.NewServer(rt.Handler())
			defer front.Close()
			conn, err := net.Dial("tcp", front.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n%sContent-Length: %d\r\n\r\n%s",
				tc.path, tc.header, len(tc.body), tc.body)
			started.Wait()
			_ = conn.Close() // the client walks away with every shard call in flight
			for i := 0; i < tc.calls; i++ {
				select {
				case <-canceled:
				case <-time.After(time.Second): // far inside the 2 s ShardTimeout
					t.Fatal("a shard call survived its client's disconnect")
				}
			}
			front.Close()
			rt.Close()
			for sid := 0; sid < 2; sid++ {
				if n := rt.mShardErrs[sid].Value(); n != 0 {
					t.Errorf("shard %d counted %d errors for calls its client canceled", sid, n)
				}
			}
		})
	}
}

// TestClientHangUpIs499: a client that hangs up while both of its shard
// calls are in flight is answered 499, as rrserve answers it, on both
// endpoints — not 502. The calls it canceled are not counted against
// the shards.
func TestClientHangUpIs499(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"/v1/query", `{"vertex":1,"region":[0,0,10,10]}`},
		{"/v1/batch", `{"queries":[{"vertex":1,"region":[0,0,10,10]}]}`},
	} {
		m := testMap([4]float64{0, 0, 4, 4}, [4]float64{6, 6, 10, 10})
		rt, install := testCluster(t, m, Config{})
		for sid := 0; sid < 2; sid++ {
			install(sid, func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body) // the server notices a hang-up only once the body is read
				<-r.Context().Done()
			})
		}
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		if rec.Code != httpjson.StatusClientClosedRequest {
			t.Errorf("%s: hang-up answered %d %s, want 499", tc.path, rec.Code, rec.Body)
		}
		for sid := 0; sid < 2; sid++ {
			if n := rt.mShardErrs[sid].Value(); n != 0 {
				t.Errorf("%s: shard %d counted %d errors for a call its client canceled", tc.path, sid, n)
			}
			if rt.health[sid].isDown() {
				t.Errorf("%s: shard %d marked down", tc.path, sid)
			}
		}
	}
}

// holdingTransport answers shard calls in-process: the backend named
// fast answers positively at once; any other call parks until released
// and only then reads its request body — a straggler still reading
// while the router serves later requests.
type holdingTransport struct {
	fast    string
	release chan struct{}
	mu      sync.Mutex
	late    [][]byte // bodies the parked calls read, in no particular order
}

func (h *holdingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	late := !strings.HasPrefix(req.URL.String(), h.fast)
	if late {
		<-h.release
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	if late {
		h.mu.Lock()
		h.late = append(h.late, body)
		h.mu.Unlock()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Header: http.Header{}, Request: req,
		Body: io.NopCloser(strings.NewReader(fmt.Sprintf(`{"reachable":%v}`, !late))),
	}, req.Body.Close()
}

// TestStragglerBodyOutlivesScratch: a straggler reads its request body
// after the handler that started it has returned its pooled scratch and
// later requests have read their own bodies into it. Each straggler
// must still see the bytes of its own request (and, under -race, must
// not be reading memory a later request writes).
func TestStragglerBodyOutlivesScratch(t *testing.T) {
	m := testMap(wholeSpace, wholeSpace)
	ht := &holdingTransport{release: make(chan struct{})}
	rt, err := New(Config{Map: m, Backends: []string{"http://a.invalid", "http://b.invalid"}, Transport: ht})
	if err != nil {
		t.Fatal(err)
	}
	ht.fast = rt.BackendFor(0)
	const requests = 32
	want := make(map[string]bool, requests)
	for i := 0; i < requests; i++ {
		// Same length every time, so a reused buffer is overwritten in full.
		body := fmt.Sprintf(`{"vertex":%d,"region":[0,0,10,10]}`, 10+i)
		want[body] = true
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"reachable":true`)) {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	close(ht.release)
	rt.Close()
	ht.mu.Lock()
	defer ht.mu.Unlock()
	if len(ht.late) != requests {
		t.Fatalf("%d stragglers read a body, want %d", len(ht.late), requests)
	}
	for _, got := range ht.late {
		if !want[string(got)] {
			t.Errorf("a straggler read %q, which no client sent", got)
		}
		delete(want, string(got))
	}
	if len(want) != 0 {
		t.Errorf("%d request bodies reached no straggler: %v", len(want), want)
	}
}
