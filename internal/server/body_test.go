package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	rangereach "repro"
	"repro/internal/httpjson"
)

func bodyTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	idx, err := testNetwork(t).Build(rangereach.ThreeDReach)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Index = idx
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestOversizedBodyRejected(t *testing.T) {
	srv := bodyTestServer(t, Config{MaxBodyBytes: 256})
	big := `{"queries":[` + strings.Repeat(`{"vertex":1,"region":[0,0,1,1]},`, 100) + `{"vertex":1,"region":[0,0,1,1]}]}`

	for _, path := range []string{"/v1/batch", "/v1/query"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(big))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body got %d, want 413 (%s)", path, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), "exceeds") {
			t.Fatalf("%s: 413 body does not explain the limit: %s", path, rec.Body.String())
		}
	}

	// The same body under the cap (or with the cap disabled) goes through.
	for _, limit := range []int64{int64(len(big)) + 1, -1} {
		srv := bodyTestServer(t, Config{MaxBodyBytes: limit})
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(big))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("limit %d: got %d, want 200 (%s)", limit, rec.Code, rec.Body.String())
		}
	}
}

func TestCanceledRequestGets499(t *testing.T) {
	dynamic, err := New(Config{Dynamic: testNetwork(t).BuildDynamic()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dynamic.Close)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client hung up before the handler ran

	batch := []byte(`{"queries":[{"vertex":1,"region":[0,0,1,1]}]}`)
	for mode, srv := range map[string]*Server{"static": bodyTestServer(t, Config{}), "dynamic": dynamic} {
		for path, body := range map[string][]byte{
			"/v1/batch": batch,
			"/v1/query": []byte(`{"vertex":1,"region":[0,0,1,1]}`),
		} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != httpjson.StatusClientClosedRequest {
				t.Fatalf("%s %s: canceled request got %d, want %d (%s)", mode, path, rec.Code, httpjson.StatusClientClosedRequest, rec.Body.String())
			}
		}
	}
}

// TestCanceledUpdateNotQueued: an update whose client is gone while the
// writer's queue is full is answered at once, not queued behind it. A
// writer that takes nothing stands in for the full queue.
func TestCanceledUpdateNotQueued(t *testing.T) {
	srv, err := New(Config{Dynamic: testNetwork(t).BuildDynamic()})
	if err != nil {
		t.Fatal(err)
	}
	srv.dyn.close()
	srv.dyn = &updater{ops: make(chan updateOp), quit: make(chan struct{}), done: make(chan struct{})}
	close(srv.dyn.done)
	t.Cleanup(srv.Close) // releases a submit that ignored the cancel
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(`{"op":"add_user"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("a canceled update waited on the writer's queue")
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("canceled update got %d, want %d (%s)", rec.Code, http.StatusGatewayTimeout, rec.Body.String())
	}
}

// TestQueryReplyWireParity: the appended untraced /v1/query reply is,
// byte for byte, what encoding/json wrote before.
func TestQueryReplyWireParity(t *testing.T) {
	for _, reachable := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			for _, gen := range []uint64{0, 1, 1<<64 - 1} {
				for _, micros := range []int64{0, 7, 123456789, 1<<63 - 1} {
					resp := httpjson.ServerQueryReply{Reachable: reachable, Cached: cached, Gen: gen, Micros: micros}
					var want bytes.Buffer
					if err := json.NewEncoder(&want).Encode(resp); err != nil {
						t.Fatal(err)
					}
					if got := resp.AppendJSON(nil); !bytes.Equal(got, want.Bytes()) {
						t.Errorf("%+v:\n got %q\nwant %q", resp, got, want.Bytes())
					}
				}
			}
		}
	}
}

// TestRequestTable pins what a /v1/query body is answered with under a
// 256-byte cap; internal/router runs the same rows against rrrouter,
// which forwards to a shard the bytes it accepted. A body is read
// whole, under the cap, before any JSON work, and must then be exactly
// one JSON value. Three rows differ from the json.Decoder this
// replaced, which stopped reading at the end of the first value: it
// accepted bytes after that value (200), and met the cap only if the
// first value ran into it.
func TestRequestTable(t *testing.T) {
	srv := bodyTestServer(t, Config{MaxBodyBytes: 256})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"valid", `{"vertex":1,"region":[0,0,1,1]}`, http.StatusOK},
		{"whitespace", " {\n \"vertex\" : 1 ,\t\"region\" : [ 0 , 0 , 1 , 1 ] } \r\n", http.StatusOK},
		{"unknown field", `{"vertex":1,"hint":{"a":[1,2]},"region":[0,0,1,1]}`, http.StatusOK},
		{"wrong type", `{"vertex":"1","region":[0,0,1,1]}`, http.StatusBadRequest},
		{"not json", `vertex=1`, http.StatusBadRequest},
		{"truncated", `{"vertex":1,"region":[0,0`, http.StatusBadRequest},
		{"empty", ``, http.StatusBadRequest},
		{"second value", `{"vertex":1,"region":[0,0,1,1]} {"vertex":2}`, http.StatusBadRequest}, // was 200
		{"trailing bytes", `{"vertex":1,"region":[0,0,1,1]}x`, http.StatusBadRequest},           // was 200
		{"over the cap", `{"vertex":1,"region":[0,0,1,1],"pad":"` + strings.Repeat("x", 300) + `"}`, http.StatusRequestEntityTooLarge},
		{"over the cap in trailing space", `{"vertex":1,"region":[0,0,1,1]}` + strings.Repeat(" ", 300), http.StatusRequestEntityTooLarge}, // was 200
		{"over the cap, not json", strings.Repeat("x", 300), http.StatusRequestEntityTooLarge},                                             // was 400
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: got %d %s, want %d", tc.name, rec.Code, rec.Body.String(), tc.status)
		}
		if rec.Code != http.StatusOK {
			continue
		}
		// What the handler wrote is what encoding/json writes for it.
		var resp httpjson.ServerQueryReply
		var again bytes.Buffer
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := json.NewEncoder(&again).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), again.Bytes()) {
			t.Errorf("%s: handler wrote %q, encoding/json writes %q", tc.name, rec.Body.Bytes(), again.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
	}
	// A batch that still carries the removed "parallelism" field is
	// answered like one without it: unknown fields are ignored.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(`{"queries":[{"vertex":1,"region":[0,0,1,1]}],"parallelism":4}`)))
	if rec.Code != http.StatusOK {
		t.Errorf("batch with parallelism: got %d %s, want 200", rec.Code, rec.Body.String())
	}
}
