package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fixtureRouter serves the three endpoints rrtop polls, with the
// shard query counters scaled by mult so tests can fake load between
// polls.
func fixtureRouter(mult int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","shards":2,"backends":2,"vertices":100,"strategy":"grid","down":[1]}`)
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{
		  "shards":[
		    {"id":0,"backend":"http://s0","down":false,"scrape_age_ms":150,"queries_total":%d,
		     "inflight":1,"cache_hit_ratio":0.25,"p50_micros":800,"p99_micros":4200},
		    {"id":1,"backend":"http://s1","down":true,"scrape_error":"connection refused",
		     "scrape_age_ms":-1,"queries_total":0,"inflight":0,"cache_hit_ratio":-1,
		     "p50_micros":0,"p99_micros":0}
		  ],
		  "router":{"requests_total":500,"errors_total":3,"early_exits_total":11,
		    "pruned_shards_total":40,"inflight":2,"p50_micros":900,"p99_micros":5100,
		    "traces_total":500,"traces_kept_total":21},
		  "cluster_p99_micros":4500
		}`, 1000*mult)
	})
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"traces":[
		  {"trace_id":"0af7651916cd43dd8448eb211c80319c","endpoint":"query",
		   "start":"2026-08-08T12:00:00Z","duration_ns":12300000,"status":200,"reason":"slow","spans":7}
		]}`)
	})
	return mux
}

// TestOnceSnapshot: a single poll renders every surface — cluster
// header, router line, both shard rows with health states, and the
// retained-trace list — with no ANSI escapes, so -once output is
// grep-safe in CI logs.
func TestOnceSnapshot(t *testing.T) {
	ts := httptest.NewServer(fixtureRouter(1))
	defer ts.Close()

	snap, err := poll(ts.Client(), ts.URL, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	render(&buf, ts.URL, nil, snap, 0)
	out := buf.String()

	for _, want := range []string{
		"status=ok shards=2 backends=2",
		"reqs=500 errs=3 inflight=2 p50=900µs p99=5.1ms early_exit=11 pruned=40 traces=500 kept=21",
		"cluster_p99=4.5ms",
		"http://s0",
		"DOWN",
		"0af7651916cd43dd8448eb211c80319c",
		"7 spans  slow",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Fatalf("-once style render must not emit ANSI escapes:\n%q", out)
	}
	// First frame has no qps baseline.
	if !strings.Contains(out, " - ") {
		t.Fatalf("first frame should render qps as '-':\n%s", out)
	}
}

// TestQPSFromDeltas: the qps column is the queries_total delta between
// two polls divided by the poll interval, computed per shard.
func TestQPSFromDeltas(t *testing.T) {
	first := httptest.NewServer(fixtureRouter(1))
	defer first.Close()
	second := httptest.NewServer(fixtureRouter(3))
	defer second.Close()

	prev, err := poll(first.Client(), first.URL, 5)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := poll(second.Client(), second.URL, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	render(&buf, second.URL, prev, cur, 2*time.Second)
	// Shard 0 went 1000 -> 3000 queries over a 2s interval: 1000 qps.
	if !strings.Contains(buf.String(), "1000.0") {
		t.Fatalf("want shard 0 qps 1000.0 from (3000-1000)/2s:\n%s", buf.String())
	}
}

// TestPollUnreachable: a dead target reports an error instead of a
// zero-valued snapshot that would render as a healthy empty cluster.
func TestPollUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	client := dead.Client()
	dead.Close()
	if _, err := poll(client, dead.URL, 5); err == nil {
		t.Fatal("poll of a dead target must error")
	}
}
