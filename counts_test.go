package rangereach_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rangereach "repro"
	"repro/internal/httpjson"
	"repro/internal/server"
)

// -update-counts re-records testdata/counts.golden from the current
// code, the way -update-format re-records the format fixtures. A change
// that moves a row re-records it and says in CHANGES.md which rows
// moved and why.
var updateCounts = flag.Bool("update-counts", false, "re-record the work-count golden testdata/counts.golden")

const countsGolden = "testdata/counts.golden"

// TestWorkCounts holds the work counts that performance claims rest on
// to a golden file: rrserve's per-request allocations and 3DReach's
// mapped open and query. An allocation row is an average, so the golden
// stores it as a ceiling and the test fails above it; allocation rows
// skip under -race, whose instrumentation allocates.
func TestWorkCounts(t *testing.T) {
	if raceEnabled {
		if *updateCounts {
			t.Fatal("-update-counts needs a build without -race")
		}
		t.Skip("allocation rows skip under -race")
	}
	got := rrserveAllocRows(t)
	for name, v := range threeDReachAllocRows(t) {
		got[name] = v
	}

	if *updateCounts {
		data, err := json.MarshalIndent(got, "", "  ") // a map marshals with sorted keys
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %v", countsGolden, got)
	}
	data, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var ceiling map[string]float64
	if err := json.Unmarshal(data, &ceiling); err != nil {
		t.Fatalf("%s: %v", countsGolden, err)
	}
	for name, v := range got {
		c, ok := ceiling[name]
		switch {
		case !ok:
			t.Errorf("%s: %v, not in %s (re-record with -update-counts)", name, v, countsGolden)
		case v > c:
			t.Errorf("%s: %v, above its ceiling %v", name, v, c)
		}
	}
	for name := range ceiling {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in %s but no longer measured", name, countsGolden)
		}
	}
}

// rrserveAllocRows measures allocations per request through rrserve's
// Handler().ServeHTTP with an httptest request and recorder, which
// alone cost 11: a /v1/query miss with the cache off, a /v1/query hit,
// and a /v1/batch of 64 queries. AllocsPerRun runs at GOMAXPROCS 1, so
// the batch takes the sequential path whatever the host's CPU count.
func rrserveAllocRows(t *testing.T) map[string]float64 {
	t.Helper()
	net := rangereach.GowallaLike(0.02, 1)
	idx, err := net.Build(rangereach.ThreeDReach)
	if err != nil {
		t.Fatal(err)
	}
	space := net.Space()
	region := [4]float64{space.MinX, space.MinY, space.MaxX, space.MaxY}
	query, err := json.Marshal(httpjson.QueryRequest{Vertex: 1, Region: region})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := httpjson.BatchRequest{Queries: make([]httpjson.QueryRequest, 64)}
	for i := range batch.Queries {
		x, y := space.MinX+rng.Float64()*(space.MaxX-space.MinX), space.MinY+rng.Float64()*(space.MaxY-space.MinY)
		batch.Queries[i] = httpjson.QueryRequest{Vertex: rng.Intn(net.NumVertices()), Region: [4]float64{x, y, x + 5, y + 5}}
	}
	batchBody, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

	newServer := func(cache int) http.Handler {
		srv, err := server.New(server.Config{Index: idx, CacheEntries: cache})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv.Handler()
	}
	cold, warm := newServer(-1), newServer(0)
	rows := make(map[string]float64)
	for _, row := range []struct {
		name, path string
		h          http.Handler
		body       []byte
		cached     bool
	}{
		{"rrserve.query_miss.allocs", "/v1/query", cold, query, false},
		{"rrserve.query_hit.allocs", "/v1/query", warm, query, true},
		{"rrserve.batch64.allocs", "/v1/batch", cold, batchBody, false},
	} {
		// The first call warms the cache; AllocsPerRun's own warm-up
		// run then fills the scratch pool.
		var last *httptest.ResponseRecorder
		serve := func() {
			last = httptest.NewRecorder()
			row.h.ServeHTTP(last, httptest.NewRequest(http.MethodPost, row.path, bytes.NewReader(row.body)))
		}
		serve()
		rows[row.name] = testing.AllocsPerRun(200, serve)
		if reply := last.Body.String(); last.Code != http.StatusOK || strings.Contains(reply, `"cached":true`) != row.cached {
			t.Fatalf("%s: got %d %s", row.name, last.Code, reply)
		}
	}
	return rows
}

// threeDReachAllocRows measures the library path under the served
// engine: Network.OpenMapped (and Close) of a saved 3DReach file, and
// one RangeReach on the mapped index over a region a fifth of the
// space on a side, which answers from the tiles.
func threeDReachAllocRows(t *testing.T) map[string]float64 {
	t.Helper()
	net := rangereach.GowallaLike(0.02, 1)
	built, err := net.Build(rangereach.ThreeDReach)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "3dreach.idx")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	open := func() *rangereach.Index {
		idx, err := net.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	rows := map[string]float64{
		"3dreach.open_mapped.allocs": testing.AllocsPerRun(20, func() { _ = open().Close() }),
	}
	mapped := open()
	t.Cleanup(func() { _ = mapped.Close() })
	space := net.Space()
	w, h := (space.MaxX-space.MinX)/5, (space.MaxY-space.MinY)/5
	region := rangereach.NewRect(space.MinX+2*w, space.MinY+2*h, space.MinX+3*w, space.MinY+3*h)
	rows["3dreach.range_reach.allocs"] = testing.AllocsPerRun(200, func() { mapped.RangeReach(1, region) })
	return rows
}

// raceEnabled is true under -race (race_test.go).
var raceEnabled bool
