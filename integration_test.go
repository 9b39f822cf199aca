package rangereach_test

import (
	"os"
	"path/filepath"
	"testing"

	rangereach "repro"
)

// TestFullPipeline exercises the whole library surface end to end, the
// way a downstream application would: generate → save → reload → build
// every method → cross-check answers → persist an index → reload it →
// batch-query it → grow the network dynamically.
func TestFullPipeline(t *testing.T) {
	dir := t.TempDir()

	// 1. Generate and persist a dataset.
	net := rangereach.GenerateSynthetic(rangereach.SyntheticConfig{
		Name: "pipeline", Users: 600, Venues: 400,
		AvgFriends: 5, AvgCheckins: 3, CoreFraction: 0.5, Clusters: 8, Seed: 31,
	})
	netPath := filepath.Join(dir, "net.gsn")
	f, err := os.Create(netPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// 2. Reload it; structure must survive.
	loaded, err := rangereach.LoadNetwork(netPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != net.NumVertices() || loaded.NumEdges() != net.NumEdges() {
		t.Fatal("network round trip lost structure")
	}

	// 3. Build every method over the reloaded network and cross-check
	// against the oracle on a workload.
	oracle := loaded.MustBuild(rangereach.Naive)
	queries := randomQueries(loaded, 120, 17)
	indexes := map[rangereach.Method]*rangereach.Index{}
	for _, m := range rangereach.Methods {
		indexes[m] = loaded.MustBuild(m)
	}
	for _, q := range queries {
		want := oracle.RangeReach(q.Vertex, q.Region)
		for m, idx := range indexes {
			if got := idx.RangeReach(q.Vertex, q.Region); got != want {
				t.Fatalf("%v disagrees with oracle at %+v", m, q)
			}
		}
	}

	// 4. Persist the winner, reload, batch-query in parallel.
	idxPath := filepath.Join(dir, "3dreach.rrx")
	if err := indexes[rangereach.ThreeDReach].SaveFile(idxPath); err != nil {
		t.Fatal(err)
	}
	reloaded, err := loaded.LoadIndexFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	parallel := reloaded.RangeReachBatch(queries, 4)
	for i, q := range queries {
		if parallel[i] != oracle.RangeReach(q.Vertex, q.Region) {
			t.Fatalf("reloaded batch answer %d wrong", i)
		}
	}

	// 5. Grow the network dynamically and verify the new reachability.
	dyn := loaded.BuildDynamic()
	venue := dyn.AddVenue(50, 50)
	follower := dyn.AddUser()
	if err := dyn.AddEdge(follower, 0); err != nil {
		t.Fatal(err)
	}
	if err := dyn.AddEdge(0, venue); err != nil {
		t.Fatal(err)
	}
	around := rangereach.NewRect(49, 49, 51, 51)
	if !dyn.RangeReach(follower, around) {
		t.Fatal("dynamic growth did not propagate reachability")
	}
}
