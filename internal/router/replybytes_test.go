package router

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/trace"
)

// clockFields are the reply fields whose values are clock readings or
// latency aggregates; backendURL is a test server's address.
var (
	clockFields = regexp.MustCompile(`"(micros|duration_ns|scrape_age_ms|p50_micros|p99_micros|cluster_p99_micros)":-?[0-9][0-9.eE+-]*`)
	startField  = regexp.MustCompile(`"start":"[^"]*"`)
	backendURL  = regexp.MustCompile(`http://127\.0\.0\.1:[0-9]+`)
)

// maskClocks zeroes every clock reading in a reply body and names each
// backend by a placeholder.
func maskClocks(b []byte) string {
	s := clockFields.ReplaceAllString(string(b), `"$1":0`)
	s = startField.ReplaceAllString(s, `"start":""`)
	return backendURL.ReplaceAllString(s, "http://backend")
}

// fixedTraceparent pins the trace id a traced reply echoes.
var fixedTraceparent = trace.FormatTraceparent("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331")

// TestReplyBytes pins the bytes of every rrrouter reply, route by route:
// status, Content-Type and body, clock readings masked. The rows run in
// order against a live two-shard dynamic cluster, so the update
// generations, the retained traces and the cluster counters are part of
// what is pinned; no row can exit early (every multi-shard request holds
// a negative), so the counters do not depend on which shard answers
// first. The last rows are clients that hang up while their one shard
// call is in flight.
func TestReplyBytes(t *testing.T) {
	c, _ := newDynamicE2ECluster(t, e2eNetwork(), 2, shard.Spatial)
	// Shard 0 holds every venue of the hang-up rows' region, and never
	// answers before its call is canceled.
	hung, install := testCluster(t, testMap([4]float64{0, 0, 4, 4}, [4]float64{6, 6, 10, 10}), Config{})
	for sid := 0; sid < 2; sid++ {
		install(sid, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body) // the server notices a hang-up only once the body is read
			<-r.Context().Done()
		})
	}

	// Shard 0's venues span y in [7.9, 79.7] and shard 1's [54.2, 100]:
	// the band y in [60, 70] meets both, the half y < 50 only shard 0.
	// Venue 501 sits at (46.6, 31.6), outside the band.
	const (
		positive = `{"vertex":0,"region":[0,0,100,50]}`
		negative = `{"vertex":501,"region":[0,60,100,70]}`
		batch    = `{"queries":[` + positive + `,` + negative + `]}`
	)
	for _, tc := range []struct {
		name           string
		h              http.Handler
		method, target string
		body           string
		traced, hangUp bool
		status         int
		reply          string
	}{
		{"query one shard", c.handler, "POST", "/v1/query", positive, false, false, 200,
			`{"reachable":true,"micros":0,"shards":1}` + "\n"},
		{"query two shards", c.handler, "POST", "/v1/query", negative, false, false, 200,
			`{"reachable":false,"micros":0,"shards":2}` + "\n"},
		{"query traced", c.handler, "POST", "/v1/query", negative, true, false, 200,
			`{"reachable":false,"micros":0,"shards":2,"trace_id":"0af7651916cd43dd8448eb211c80319c"}` + "\n"},
		{"batch", c.handler, "POST", "/v1/batch", batch, false, false, 200,
			`{"results":[true,false],"micros":0,"shards":2}` + "\n"},
		{"batch traced", c.handler, "POST", "/v1/batch", batch, true, false, 200,
			`{"results":[true,false],"micros":0,"shards":2,"trace_id":"0af7651916cd43dd8448eb211c80319c"}` + "\n"},
		{"add_user", c.handler, "POST", "/v1/update", `{"op":"add_user"}`, false, false, 200,
			`{"id":750,"gen":1}` + "\n"},
		{"add_venue", c.handler, "POST", "/v1/update", `{"op":"add_venue","x":50,"y":20}`, false, false, 200,
			`{"id":751,"owner":0,"gen":2}` + "\n"},
		{"add_edge", c.handler, "POST", "/v1/update", `{"op":"add_edge","from":750,"to":751}`, false, false, 200,
			`{"gen":3}` + "\n"},
		{"move_venue", c.handler, "POST", "/v1/update", `{"op":"move_venue","vertex":751,"x":51,"y":21}`, false, false, 200,
			`{"owner":0,"gen":4}` + "\n"},
		{"del_edge missing", c.handler, "POST", "/v1/update", `{"op":"del_edge","from":751,"to":750}`, false, false, 409,
			`{"error":"shard 0: 409 Conflict: {\"error\":\"incr: no such edge (751,750)\"}"}` + "\n"},
		{"unknown op", c.handler, "POST", "/v1/update", `{"op":"nope"}`, false, false, 400,
			`{"error":"unknown op \"nope\" (want add_user, add_venue, add_edge, del_edge or move_venue)"}` + "\n"},
		{"vertex out of range", c.handler, "POST", "/v1/query", `{"vertex":100000,"region":[0,0,1,1]}`, false, false, 400,
			`{"error":"vertex 100000 out of range [0,750)"}` + "\n"},
		{"empty batch", c.handler, "POST", "/v1/batch", `{"queries":[]}`, false, false, 400,
			`{"error":"empty batch"}` + "\n"},
		{"unknown trace", c.handler, "GET", "/v1/trace/ffff", ``, false, false, 404,
			`{"error":"trace \"ffff\" not found (never sampled, or evicted from the ring)"}` + "\n"},
		{"healthz", c.handler, "GET", "/healthz", ``, false, false, 200,
			`{"status":"ok","shards":2,"backends":2,"vertices":750,"space":[4.757369833876433,7.862519426549818,100,100],"strategy":"spatial"}` + "\n"},
		{"traces", c.handler, "GET", "/v1/traces", ``, false, false, 200,
			`{"traces":[{"trace_id":"0af7651916cd43dd8448eb211c80319c","endpoint":"batch","start":"","duration_ns":0,"status":200,"reason":"forced","spans":4},{"trace_id":"0af7651916cd43dd8448eb211c80319c","endpoint":"query","start":"","duration_ns":0,"status":200,"reason":"forced","spans":4}]}` + "\n"},
		{"cluster", c.handler, "GET", "/v1/cluster", ``, false, false, 200,
			`{"shards":[{"id":0,"backend":"http://backend","down":false,"scrape_age_ms":0,"queries_total":6,"inflight":0,"cache_hit_ratio":0.3333333333333333,"p50_micros":0,"p99_micros":0,"gen":5},{"id":1,"backend":"http://backend","down":false,"scrape_age_ms":0,"queries_total":3,"inflight":0,"cache_hit_ratio":0.5,"p50_micros":0,"p99_micros":0,"gen":5}],"router":{"requests_total":7,"errors_total":5,"early_exits_total":0,"pruned_shards_total":1,"inflight":0,"p50_micros":0,"p99_micros":0,"traces_total":2,"traces_kept_total":2},"cluster_p99_micros":0,"max_generation":5}` + "\n"},
		{"query hang-up", hung.Handler(), "POST", "/v1/query", `{"vertex":1,"region":[0,0,1,1]}`, false, true, 499,
			`{"error":"query: context canceled"}` + "\n"},
		{"batch hang-up", hung.Handler(), "POST", "/v1/batch", `{"queries":[{"vertex":1,"region":[0,0,1,1]}]}`, false, true, 499,
			`{"error":"batch: context canceled"}` + "\n"},
	} {
		req := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
		if tc.traced {
			req.Header.Set(trace.TraceparentHeader, fixedTraceparent)
		}
		if tc.hangUp {
			ctx, cancel := context.WithCancel(req.Context())
			time.AfterFunc(50*time.Millisecond, cancel)
			req = req.WithContext(ctx)
		}
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, req)
		if got := maskClocks(rec.Body.Bytes()); rec.Code != tc.status || got != tc.reply {
			t.Errorf("%s: got %d %q\nwant %d %q", tc.name, rec.Code, got, tc.status, tc.reply)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
	}
}
