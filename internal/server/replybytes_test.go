package server

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/trace"
)

// clockFields are the reply fields whose values are clock readings.
var clockFields = regexp.MustCompile(`"(micros|duration_ns)":\d+`)

// maskClocks zeroes every clock reading in a reply body.
func maskClocks(b []byte) string { return clockFields.ReplaceAllString(string(b), `"$1":0`) }

// fixedTraceparent pins the trace id a traced reply echoes.
var fixedTraceparent = trace.FormatTraceparent("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331")

// TestReplyBytes pins the bytes of every rrserve reply, route by route:
// status, Content-Type and body, clock readings masked. The rows run in
// order against three servers (static with a shard id, dynamic, closed),
// so the cache and the generation are part of what is pinned.
func TestReplyBytes(t *testing.T) {
	static := bodyTestServer(t, Config{ShardID: "3"})
	dynamic, err := New(Config{Dynamic: testNetwork(t).BuildDynamic()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dynamic.Close)
	closed := bodyTestServer(t, Config{})
	closed.Close()

	for _, tc := range []struct {
		name           string
		srv            *Server
		method, target string
		body           string
		traced         bool
		status         int
		reply          string
	}{
		{"query miss", static, "POST", "/v1/query", `{"vertex":1,"region":[0,0,100,100]}`, false, 200,
			`{"reachable":true,"cached":false,"gen":0,"micros":0}` + "\n"},
		{"query hit", static, "POST", "/v1/query", `{"vertex":1,"region":[0,0,100,100]}`, false, 200,
			`{"reachable":true,"cached":true,"gen":0,"micros":0}` + "\n"},
		{"query traced miss", static, "POST", "/v1/query", `{"vertex":2,"region":[0,0,50,50]}`, true, 200,
			`{"reachable":true,"cached":false,"gen":0,"micros":0,"shard":"3","trace_id":"0af7651916cd43dd8448eb211c80319c","stats":{"method":"3DReach","duration_ns":0,"labels":1,"index_nodes":2,"index_leaves":1,"index_entries":16,"stages":[{"stage":"spatial","duration_ns":0}]}}` + "\n"},
		{"query traced hit", static, "POST", "/v1/query", `{"vertex":1,"region":[0,0,100,100]}`, true, 200,
			`{"reachable":true,"cached":true,"gen":0,"micros":0,"shard":"3","trace_id":"0af7651916cd43dd8448eb211c80319c","stats":{"method":"3DReach","duration_ns":0,"cache_hit":true}}` + "\n"},
		{"query negative", static, "POST", "/v1/query", `{"vertex":3,"region":[0,0,1,1]}`, false, 200,
			`{"reachable":false,"cached":false,"gen":0,"micros":0}` + "\n"},
		{"batch", static, "POST", "/v1/batch", `{"queries":[{"vertex":1,"region":[0,0,100,100]},{"vertex":3,"region":[0,0,1,1]}]}`, false, 200,
			`{"results":[true,false],"gen":0,"micros":0}` + "\n"},
		{"explain miss", static, "GET", "/v1/explain?vertex=4&region=0,0,50,50", ``, false, 200,
			`{"reachable":true,"gen":0,"stats":{"method":"3DReach","duration_ns":0,"labels":1,"index_nodes":2,"index_leaves":1,"index_entries":16,"stages":[{"stage":"spatial","duration_ns":0}]}}` + "\n"},
		{"explain hit", static, "GET", "/v1/explain?vertex=4&region=0,0,50,50", ``, false, 200,
			`{"reachable":true,"gen":0,"stats":{"method":"3DReach","duration_ns":0,"cache_hit":true}}` + "\n"},
		{"healthz static", static, "GET", "/healthz", ``, false, 200,
			`{"status":"ok","mode":"static","method":"3DReach","vertices":450,"gen":0}` + "\n"},
		{"update static", static, "POST", "/v1/update", `{"op":"add_user"}`, false, 501,
			`{"error":"updates require dynamic mode (rrserve -dynamic)"}` + "\n"},
		{"vertex out of range", static, "POST", "/v1/query", `{"vertex":100000,"region":[0,0,1,1]}`, false, 400,
			`{"error":"vertex 100000 out of range [0,450)"}` + "\n"},
		{"empty batch", static, "POST", "/v1/batch", `{"queries":[]}`, false, 400,
			`{"error":"empty batch"}` + "\n"},
		{"bad explain region", static, "GET", "/v1/explain?vertex=4&region=0,0", ``, false, 400,
			`{"error":"bad region \"0,0\": want xmin,ymin,xmax,ymax"}` + "\n"},
		{"add_user", dynamic, "POST", "/v1/update", `{"op":"add_user"}`, false, 200,
			`{"id":450,"gen":1}` + "\n"},
		{"add_venue", dynamic, "POST", "/v1/update", `{"op":"add_venue","x":5,"y":5}`, false, 200,
			`{"id":451,"gen":2}` + "\n"},
		{"add_edge", dynamic, "POST", "/v1/update", `{"op":"add_edge","from":450,"to":451}`, false, 200,
			`{"gen":3}` + "\n"},
		{"del_edge missing", dynamic, "POST", "/v1/update", `{"op":"del_edge","from":451,"to":450}`, false, 409,
			`{"error":"incr: no such edge (451,450)"}` + "\n"},
		{"unknown op", dynamic, "POST", "/v1/update", `{"op":"nope"}`, false, 400,
			`{"error":"unknown op \"nope\" (want add_user, add_venue, add_edge, del_edge or move_venue)"}` + "\n"},
		{"query after updates", dynamic, "POST", "/v1/query", `{"vertex":450,"region":[4,4,6,6]}`, false, 200,
			`{"reachable":true,"cached":false,"gen":4,"micros":0}` + "\n"},
		{"query traced dynamic", dynamic, "POST", "/v1/query", `{"vertex":1,"region":[0,0,50,50]}`, true, 200,
			`{"reachable":true,"cached":false,"gen":4,"micros":0,"trace_id":"0af7651916cd43dd8448eb211c80319c","stats":{"method":"3DReach-Dynamic","duration_ns":0,"labels":6,"index_nodes":2,"index_leaves":1,"index_entries":16,"stages":[{"stage":"spatial","duration_ns":0}]}}` + "\n"},
		{"explain dynamic", dynamic, "GET", "/v1/explain?vertex=450&region=4,4,7,7", ``, false, 200,
			`{"reachable":true,"gen":4,"stats":{"method":"3DReach-Dynamic","duration_ns":0,"labels":1,"index_nodes":1,"index_entries":1,"overlay_entries":1,"stages":[{"stage":"spatial","duration_ns":0}]}}` + "\n"},
		{"healthz dynamic", dynamic, "GET", "/healthz", ``, false, 200,
			`{"status":"ok","mode":"dynamic","method":"3DReach-Dynamic","vertices":452,"gen":4}` + "\n"},
		{"closed", closed, "POST", "/v1/query", `{"vertex":1,"region":[0,0,1,1]}`, false, 503,
			`{"error":"server: closed"}` + "\n"},
	} {
		req := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
		if tc.traced {
			req.Header.Set(trace.TraceparentHeader, fixedTraceparent)
		}
		rec := httptest.NewRecorder()
		tc.srv.Handler().ServeHTTP(rec, req)
		if got := maskClocks(rec.Body.Bytes()); rec.Code != tc.status || got != tc.reply {
			t.Errorf("%s: got %d %q\nwant %d %q", tc.name, rec.Code, got, tc.status, tc.reply)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
	}
}
