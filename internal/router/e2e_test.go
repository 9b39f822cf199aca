package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	rangereach "repro"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/shard"
)

// e2eCluster is a live sharded deployment inside one process: real
// indexes behind real internal/server handlers, fronted by a Router,
// next to the unsharded oracle index built from the same network.
type e2eCluster struct {
	router   *Router
	handler  http.Handler
	oracle   *rangereach.Index
	vertices int
	space    rangereach.Rect
}

// newE2ECluster partitions net into nShards, builds one index per shard
// network (round-tripped through the on-disk format, exactly as rrgen
// and rrserve would), serves shard i on backend i, and returns the
// cluster.
func newE2ECluster(t *testing.T, net *dataset.Network, nShards int, strategy shard.Strategy, method rangereach.Method) *e2eCluster {
	t.Helper()
	dir := t.TempDir()

	fullPath := filepath.Join(dir, "full.gsn")
	if err := dataset.SaveFile(fullPath, net); err != nil {
		t.Fatal(err)
	}
	full, err := rangereach.LoadNetwork(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := full.Build(method)
	if err != nil {
		t.Fatal(err)
	}

	asn, err := shard.Partition(net, nShards, strategy)
	if err != nil {
		t.Fatal(err)
	}
	m := asn.Map(net.Name, net.NumVertices(), net.Space())

	// Shard i is served by backend i, so each shard's server is up
	// before the router that is handed its URL.
	urls := make([]string, nShards)
	for sid := range urls {
		snet, err := asn.ShardNetwork(net, sid)
		if err != nil {
			t.Fatal(err)
		}
		spath := filepath.Join(dir, fmt.Sprintf("shard%d.gsn", sid))
		if err := dataset.SaveFile(spath, snet); err != nil {
			t.Fatal(err)
		}
		loaded, err := rangereach.LoadNetwork(spath)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := loaded.Build(method)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Index: idx})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		urls[sid] = serveShard(t, srv.Handler())
	}
	rt, err := New(Config{Map: m, Backends: urls, Policy: PolicyFail})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return &e2eCluster{
		router:   rt,
		handler:  rt.Handler(),
		oracle:   oracle,
		vertices: net.NumVertices(),
		space:    full.Space(),
	}
}

// serveShard starts a backend serving h and returns its base URL.
func serveShard(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// queries draws a randomized suite: vertices uniform over the id space,
// regions from tiny single-shard rectangles up to 60% of the space
// (guaranteed to span multiple spatial shards), plus the whole space.
func (c *e2eCluster) queries(rng *rand.Rand, n int) []queryRequest {
	extents := []float64{0.01, 0.05, 0.2, 0.6}
	w := c.space.MaxX - c.space.MinX
	h := c.space.MaxY - c.space.MinY
	out := make([]queryRequest, 0, n+1)
	for i := 0; i < n; i++ {
		frac := extents[i%len(extents)]
		rw, rh := w*frac, h*frac
		x := c.space.MinX + rng.Float64()*(w-rw)
		y := c.space.MinY + rng.Float64()*(h-rh)
		out = append(out, queryRequest{
			Vertex: rng.Intn(c.vertices),
			Region: [4]float64{x, y, x + rw, y + rh},
		})
	}
	out = append(out, queryRequest{
		Vertex: rng.Intn(c.vertices),
		Region: [4]float64{c.space.MinX, c.space.MinY, c.space.MaxX, c.space.MaxY},
	})
	return out
}

func e2eNetwork() *dataset.Network {
	return dataset.Generate(dataset.GenConfig{
		Name:        "e2e",
		Users:       500,
		Venues:      250,
		AvgFriends:  6,
		AvgCheckins: 3,
		Regime:      dataset.Fragmented,
		Clusters:    20,
		Seed:        11,
	})
}

// TestShardedClusterMatchesUnsharded is the end-to-end acceptance test:
// a >=3-shard cluster served through the router answers every query —
// single and batch, including regions spanning multiple shards —
// identically to one unsharded index.
func TestShardedClusterMatchesUnsharded(t *testing.T) {
	net := e2eNetwork()
	for _, strategy := range []shard.Strategy{shard.Spatial, shard.Social} {
		t.Run(strategy.String(), func(t *testing.T) {
			c := newE2ECluster(t, net, 3, strategy, rangereach.ThreeDReach)
			rng := rand.New(rand.NewSource(99))
			queries := c.queries(rng, 150)

			positives := 0
			for i, q := range queries {
				rec, resp := postQuery(t, c.handler, q.Vertex, q.Region)
				if rec.Code != http.StatusOK {
					t.Fatalf("query %d: status %d: %s", i, rec.Code, rec.Body.String())
				}
				want := c.oracle.RangeReach(q.Vertex, rangereach.NewRect(q.Region[0], q.Region[1], q.Region[2], q.Region[3]))
				if resp.Reachable != want {
					t.Fatalf("query %d (vertex %d region %v): sharded=%v unsharded=%v",
						i, q.Vertex, q.Region, resp.Reachable, want)
				}
				if want {
					positives++
				}
			}
			if positives == 0 || positives == len(queries) {
				t.Fatalf("degenerate suite: %d/%d positive — the comparison proves nothing", positives, len(queries))
			}

			rec, batch := postBatch(t, c.handler, queries)
			if rec.Code != http.StatusOK {
				t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
			}
			if batch.Partial {
				t.Fatal("batch flagged partial on a healthy cluster")
			}
			for i, q := range queries {
				want := c.oracle.RangeReach(q.Vertex, rangereach.NewRect(q.Region[0], q.Region[1], q.Region[2], q.Region[3]))
				if batch.Results[i] != want {
					t.Fatalf("batch query %d: sharded=%v unsharded=%v", i, batch.Results[i], want)
				}
			}
		})
	}
}

// TestShardedClusterFiveShards stresses the merge path at an odd shard
// count, over a second engine.
func TestShardedClusterFiveShards(t *testing.T) {
	net := e2eNetwork()
	c := newE2ECluster(t, net, 5, shard.Spatial, rangereach.SocReach)
	rng := rand.New(rand.NewSource(7))
	queries := c.queries(rng, 60)
	rec, batch := postBatch(t, c.handler, queries)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	for i, q := range queries {
		want := c.oracle.RangeReach(q.Vertex, rangereach.NewRect(q.Region[0], q.Region[1], q.Region[2], q.Region[3]))
		if batch.Results[i] != want {
			t.Fatalf("query %d: sharded=%v unsharded=%v", i, batch.Results[i], want)
		}
	}
}

// TestShardedExplainParity spot-checks that shard servers accept the
// exact wire bytes the router sends (contract drift between the two
// packages' request structs would surface here).
func TestShardedWireContract(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(queryRequest{Vertex: 3, Region: [4]float64{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	want := `{"vertex":3,"region":[1,2,3,4]}`
	if got := bytes.TrimSpace(buf.Bytes()); string(got) != want {
		t.Fatalf("query wire format drifted: %s", got)
	}
}

// newDynamicE2ECluster is newE2ECluster with every shard serving a
// dynamic index (with publish-time validation) and a dynamic unsharded
// oracle, so updates can stream through the router.
func newDynamicE2ECluster(t *testing.T, net *dataset.Network, nShards int, strategy shard.Strategy) (*e2eCluster, *rangereach.DynamicIndex) {
	t.Helper()
	dir := t.TempDir()

	fullPath := filepath.Join(dir, "full.gsn")
	if err := dataset.SaveFile(fullPath, net); err != nil {
		t.Fatal(err)
	}
	full, err := rangereach.LoadNetwork(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	oracle := full.BuildDynamic()

	asn, err := shard.Partition(net, nShards, strategy)
	if err != nil {
		t.Fatal(err)
	}
	m := asn.Map(net.Name, net.NumVertices(), net.Space())

	urls := make([]string, nShards)
	for sid := range urls {
		snet, err := asn.ShardNetwork(net, sid)
		if err != nil {
			t.Fatal(err)
		}
		spath := filepath.Join(dir, fmt.Sprintf("shard%d.gsn", sid))
		if err := dataset.SaveFile(spath, snet); err != nil {
			t.Fatal(err)
		}
		loaded, err := rangereach.LoadNetwork(spath)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Dynamic: loaded.BuildDynamic(), CheckPublish: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		urls[sid] = serveShard(t, srv.Handler())
	}
	rt, err := New(Config{Map: m, Backends: urls, Policy: PolicyFail})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return &e2eCluster{
		router:   rt,
		handler:  rt.Handler(),
		vertices: net.NumVertices(),
		space:    full.Space(),
	}, oracle
}

func postRouterUpdate(t *testing.T, h http.Handler, ureq updateRequest) (int, updateResponse) {
	t.Helper()
	body, err := json.Marshal(ureq)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp updateResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	return rec.Code, resp
}

// TestShardedDynamicUpdates streams a randomized update sequence —
// users, venues, edges in and out, venue moves — through the router's
// /v1/update and asserts the cluster keeps answering queries exactly
// like an unsharded dynamic oracle receiving the same sequence, while
// the cluster-wide generation advances monotonically.
func TestShardedDynamicUpdates(t *testing.T) {
	net := e2eNetwork()
	c, oracle := newDynamicE2ECluster(t, net, 3, shard.Spatial)
	rng := rand.New(rand.NewSource(13))

	nVertices := net.NumVertices()
	var venues []int
	for v := 0; v < nVertices; v++ {
		if net.Spatial[v] {
			venues = append(venues, v)
		}
	}
	edgeSet := make(map[[2]int]bool)
	var edges [][2]int
	for u := 0; u < nVertices; u++ {
		for _, w := range net.Graph.Out(u) {
			e := [2]int{u, int(w)}
			edgeSet[e] = true
			edges = append(edges, e)
		}
	}

	space := c.space
	var lastGen uint64
	for step := 0; step < 120; step++ {
		switch k := rng.Intn(10); {
		case k < 2: // add user
			code, resp := postRouterUpdate(t, c.handler, updateRequest{Op: "add_user"})
			if code != http.StatusOK {
				t.Fatalf("step %d: add_user status %d", step, code)
			}
			if id := oracle.AddUser(); resp.ID == nil || *resp.ID != id {
				t.Fatalf("step %d: add_user id %v, oracle %d", step, resp.ID, id)
			}
			nVertices++
		case k < 4: // add venue
			x := space.MinX + rng.Float64()*(space.MaxX-space.MinX)
			y := space.MinY + rng.Float64()*(space.MaxY-space.MinY)
			code, resp := postRouterUpdate(t, c.handler, updateRequest{Op: "add_venue", X: x, Y: y})
			if code != http.StatusOK {
				t.Fatalf("step %d: add_venue status %d", step, code)
			}
			if id := oracle.AddVenue(x, y); resp.ID == nil || *resp.ID != id {
				t.Fatalf("step %d: add_venue id %v, oracle %d", step, resp.ID, id)
			}
			if resp.Owner == nil {
				t.Fatalf("step %d: add_venue returned no owner", step)
			}
			venues = append(venues, nVertices)
			nVertices++
		case k < 6 && len(edges) > 0: // delete a known edge
			i := rng.Intn(len(edges))
			e := edges[i]
			edges[i] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			delete(edgeSet, e)
			code, _ := postRouterUpdate(t, c.handler, updateRequest{Op: "del_edge", From: e[0], To: e[1]})
			if code != http.StatusOK {
				t.Fatalf("step %d: del_edge(%d,%d) status %d", step, e[0], e[1], code)
			}
			if err := oracle.DeleteEdge(e[0], e[1]); err != nil {
				t.Fatalf("step %d: oracle del_edge: %v", step, err)
			}
		case k < 7 && len(venues) > 0: // move a venue
			v := venues[rng.Intn(len(venues))]
			x := space.MinX + rng.Float64()*(space.MaxX-space.MinX)
			y := space.MinY + rng.Float64()*(space.MaxY-space.MinY)
			code, resp := postRouterUpdate(t, c.handler, updateRequest{Op: "move_venue", Vertex: v, X: x, Y: y})
			if code != http.StatusOK {
				t.Fatalf("step %d: move_venue(%d) status %d", step, v, code)
			}
			if resp.Owner == nil {
				t.Fatalf("step %d: move_venue returned no owner", step)
			}
			if err := oracle.MoveVenue(v, x, y); err != nil {
				t.Fatalf("step %d: oracle move_venue: %v", step, err)
			}
		default: // add edge (cycle-closing edges merge cluster-wide)
			u, v := rng.Intn(nVertices), rng.Intn(nVertices)
			code, resp := postRouterUpdate(t, c.handler, updateRequest{Op: "add_edge", From: u, To: v})
			if code != http.StatusOK {
				t.Fatalf("step %d: add_edge(%d,%d) status %d", step, u, v, code)
			}
			if err := oracle.AddEdge(u, v); err != nil {
				t.Fatalf("step %d: oracle add_edge: %v", step, err)
			}
			if u != v && !edgeSet[[2]int{u, v}] {
				edgeSet[[2]int{u, v}] = true
				edges = append(edges, [2]int{u, v})
			}
			if resp.Gen < lastGen {
				t.Fatalf("step %d: generation went backwards: %d < %d", step, resp.Gen, lastGen)
			}
			lastGen = resp.Gen
		}

		if step%20 == 19 {
			for i, q := range c.queries(rng, 25) {
				rec, resp := postQuery(t, c.handler, q.Vertex, q.Region)
				if rec.Code != http.StatusOK {
					t.Fatalf("step %d query %d: status %d: %s", step, i, rec.Code, rec.Body.String())
				}
				want := oracle.RangeReach(q.Vertex, rangereach.NewRect(q.Region[0], q.Region[1], q.Region[2], q.Region[3]))
				if resp.Reachable != want {
					t.Fatalf("step %d query %d (vertex %d region %v): sharded=%v oracle=%v",
						step, i, q.Vertex, q.Region, resp.Reachable, want)
				}
			}
		}
	}
	if lastGen == 0 {
		t.Fatal("no add_edge advanced the generation — degenerate op mix")
	}

	// The cluster view reports the generation high-water mark.
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster", nil)
	rec := httptest.NewRecorder()
	c.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/cluster status %d: %s", rec.Code, rec.Body.String())
	}
	var cresp clusterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cresp); err != nil {
		t.Fatal(err)
	}
	if cresp.MaxGeneration < lastGen {
		t.Fatalf("cluster max_generation %d below last observed update gen %d", cresp.MaxGeneration, lastGen)
	}
	for _, s := range cresp.Shards {
		if s.Gen == 0 {
			t.Errorf("shard %d reports generation 0 after %d updates", s.ID, 120)
		}
	}
}
