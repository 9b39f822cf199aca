package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	rangereach "repro"
	"repro/internal/server"
)

// TestQueryReplyWireParity: the appended /v1/query reply is, byte for
// byte, what encoding/json wrote before — every combination of the
// optional fields over edge values of the scalars.
func TestQueryReplyWireParity(t *testing.T) {
	for _, reachable := range []bool{false, true} {
		for _, micros := range []int64{0, 7, 123456789, 1<<63 - 1} {
			for _, shards := range []int{0, 1, 2, 1024} {
				for _, traceID := range []string{"", "0123456789abcdef0123456789abcdef"} {
					resp := queryResponse{Reachable: reachable, Micros: micros, Shards: shards, TraceID: traceID}
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

// requestTable pins what a /v1/query body is answered with under a
// 256-byte cap; internal/server runs the same rows against rrserve. A
// body is read whole, under the cap, before any JSON work, and must
// then be exactly one JSON value. Three rows differ from the
// json.Decoder this replaced, which stopped reading at the end of the
// first value: it accepted bytes after that value (200), and met the
// cap only if the first value ran into it.
var requestTable = []struct {
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
}

func TestRequestTable(t *testing.T) {
	rt, install := testCluster(t, testMap(wholeSpace), Config{MaxBodyBytes: 256})
	install(0, answer(false))
	for _, tc := range requestTable {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: got %d %s, want %d", tc.name, rec.Code, rec.Body.String(), tc.status)
		}
		if rec.Code != http.StatusOK {
			continue
		}
		// What the handler wrote is what encoding/json writes for it.
		var resp queryResponse
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
}

// TestPassThroughForwardsReceivedBytes: the shard is sent the bytes the
// client sent — unknown field, odd spacing and all — and answers them
// as it answers the normalized body the router used to re-encode.
func TestPassThroughForwardsReceivedBytes(t *testing.T) {
	net := rangereach.GenerateSynthetic(rangereach.SyntheticConfig{
		Name: "passthrough", Users: 200, Venues: 100,
		AvgFriends: 4, AvgCheckins: 3, Clusters: 4, Seed: 11,
	})
	srv, err := server.New(server.Config{Index: net.MustBuild(rangereach.ThreeDReach), CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var mu sync.Mutex
	var received []string
	// The generator's venues live in [0,100]².
	rt, install := testCluster(t, testMap([4]float64{0, 0, 100, 100}), Config{})
	install(0, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		received = append(received, string(body))
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		srv.Handler().ServeHTTP(w, r)
	})
	ask := func(body string) bool {
		t.Helper()
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: %d %s (%v)", body, rec.Code, rec.Body.String(), err)
		}
		if resp.Shards != 1 {
			t.Fatalf("%s: consulted %d shards, want the one", body, resp.Shards)
		}
		return resp.Reachable
	}
	positives := 0
	for v := 0; v < 100; v++ {
		x := float64(v%7) * 12.5
		normalized := fmt.Sprintf(`{"vertex":%d,"region":[%g,0,%g,100]}`, v, x, x+25)
		odd := fmt.Sprintf("\n{ \"region\" :[ %g,0.0 , %g, 1e2 ],\t\"client\":\"x\", \"vertex\": %d }\n", x, x+25, v)
		want, got := ask(normalized), ask(odd)
		if got != want {
			t.Errorf("vertex %d: odd body answered %v, normalized %v", v, got, want)
		}
		if want {
			positives++
		}
		mu.Lock()
		if n := len(received); n < 2 || received[n-2] != normalized || received[n-1] != odd {
			t.Errorf("vertex %d: shard received %q, want the client's bytes", v, received[max(0, n-2):])
		}
		mu.Unlock()
	}
	if positives == 0 || positives == 100 {
		t.Fatalf("%d of 100 queries positive: the comparison saw one answer only", positives)
	}
}
