// Command rrgen generates synthetic geosocial networks in the library's
// text format, either from the four presets calibrated to the paper's
// datasets or from explicit parameters.
//
// Usage:
//
//	rrgen -preset foursquare-like -scale 1.0 -seed 1 -o foursquare.gsn
//	rrgen -users 10000 -venues 5000 -friends 7 -checkins 3 -giant-scc -o custom.gsn
//	rrgen -preset gowalla-like -o gowalla.gsn -index 3dreach -j 4
//	rrgen -preset gowalla-like -o gowalla.gsn -shards 4 -index 3dreach
//
// -index additionally builds and persists a ready-to-serve index over
// the generated network (rrserve -load-index skips the build on
// startup); -j bounds the build workers — the emitted index bytes are
// identical at any setting.
//
// -shards partitions the network for sharded serving behind rrrouter:
// <stem>.shard<i>.gsn files (each the full social graph with one venue
// partition kept spatial) plus a <stem>.shardmap.json topology file;
// combined with -index every shard also gets a prebuilt .idx.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	rangereach "repro"
	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/workload"
)

// indexM is registered at package level so the test can read its help
// text, which lists indexMethodNames and nothing typed by hand.
var indexM = flag.String("index", "", "also build and persist an index of this method ("+strings.Join(indexMethodNames(), ", ")+")")

func main() {
	var (
		preset   = flag.String("preset", "", "preset: foursquare-like, gowalla-like, weeplaces-like, yelp-like")
		scale    = flag.Float64("scale", 1.0, "preset scale (1.0 ≈ 1% of the paper's sizes)")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("o", "", "output file (default: stdout)")
		users    = flag.Int("users", 0, "custom: number of users")
		venues   = flag.Int("venues", 0, "custom: number of venues")
		friends  = flag.Float64("friends", 7, "custom: average friendship out-degree")
		checkins = flag.Float64("checkins", 3, "custom: average check-ins per user")
		giant    = flag.Bool("giant-scc", false, "custom: put all users in one SCC")
		core     = flag.Float64("core", 0.5, "custom: core fraction for the fragmented regime")
		clusters = flag.Int("clusters", 32, "custom: number of venue clusters")
		stats    = flag.Bool("stats", false, "print the Table 3 row of the generated network to stderr")
		emitQ    = flag.Int("emit-queries", 0, "also generate this many workload queries (rrquery -batch format)")
		extent   = flag.Float64("extent", 5, "query-region extent in percent of the space (with -emit-queries)")
		queriesO = flag.String("queries-o", "", "output file for generated queries (default: stderr-adjacent <o>.queries)")
		indexO   = flag.String("index-o", "", "output file for the persisted index (default: <o>.idx; requires -o)")
		buildJ   = flag.Int("j", 0, "worker bound for the -index build (0 = all CPUs, 1 = sequential; output is identical at any setting)")
		shards   = flag.Int("shards", 0, "also partition into this many shard networks for rrrouter (requires -o)")
		shardBy  = flag.String("shard-strategy", "spatial", "shard partitioner: spatial (z-order grid runs), social (SCC components)")
	)
	flag.Parse()

	var net *dataset.Network
	switch *preset {
	case "foursquare-like":
		net = dataset.FoursquareLike(*scale, *seed)
	case "gowalla-like":
		net = dataset.GowallaLike(*scale, *seed)
	case "weeplaces-like":
		net = dataset.WeeplacesLike(*scale, *seed)
	case "yelp-like":
		net = dataset.YelpLike(*scale, *seed)
	case "":
		if *users <= 0 || *venues <= 0 {
			fmt.Fprintln(os.Stderr, "rrgen: need -preset or both -users and -venues")
			os.Exit(2)
		}
		regime := dataset.Fragmented
		if *giant {
			regime = dataset.GiantSCC
		}
		net = dataset.Generate(dataset.GenConfig{
			Name:         "custom",
			Users:        *users,
			Venues:       *venues,
			AvgFriends:   *friends,
			AvgCheckins:  *checkins,
			Regime:       regime,
			CoreFraction: *core,
			Clusters:     *clusters,
			Seed:         *seed,
		})
	default:
		fmt.Fprintf(os.Stderr, "rrgen: unknown preset %q\n", *preset)
		os.Exit(2)
	}

	if *stats {
		s := net.ComputeStats()
		fmt.Fprintf(os.Stderr,
			"%s: users=%d venues=%d checkins=%d |V|=%d |E|=%d SCCs=%d largest=%d\n",
			s.Name, s.Users, s.Venues, s.Checkins, s.Vertices, s.Edges, s.SCCs, s.LargestSCC)
	}

	if *emitQ > 0 {
		if err := emitQueries(net, *emitQ, *extent, *seed, *queriesO, *out); err != nil {
			fmt.Fprintf(os.Stderr, "rrgen: %v\n", err)
			os.Exit(1)
		}
	}

	if *out == "" {
		if *indexM != "" {
			fmt.Fprintln(os.Stderr, "rrgen: -index requires -o")
			os.Exit(2)
		}
		if *shards > 0 {
			fmt.Fprintln(os.Stderr, "rrgen: -shards requires -o")
			os.Exit(2)
		}
		if err := dataset.Save(os.Stdout, net); err != nil {
			fmt.Fprintf(os.Stderr, "rrgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := dataset.SaveFile(*out, net); err != nil {
		fmt.Fprintf(os.Stderr, "rrgen: %v\n", err)
		os.Exit(1)
	}
	if *indexM != "" {
		if err := emitIndex(*out, *indexM, *indexO, *buildJ); err != nil {
			fmt.Fprintf(os.Stderr, "rrgen: %v\n", err)
			os.Exit(1)
		}
	}
	if *shards > 0 {
		if err := emitShards(net, *out, *shards, *shardBy, *indexM, *buildJ); err != nil {
			fmt.Fprintf(os.Stderr, "rrgen: %v\n", err)
			os.Exit(1)
		}
	}
}

// emitShards partitions the network for sharded serving: each shard is
// a full copy of the social graph with only its assigned venues kept
// spatial, written as <stem>.shard<i>.gsn, plus <stem>.shardmap.json
// describing the topology for rrrouter. With -index, each shard also
// gets a prebuilt <stem>.shard<i>.gsn.idx so the serving processes
// skip their startup builds.
func emitShards(net *dataset.Network, out string, n int, strategyName, indexM string, buildJ int) error {
	strategy, err := shard.ParseStrategy(strategyName)
	if err != nil {
		return err
	}
	asn, err := shard.Partition(net, n, strategy)
	if err != nil {
		return err
	}
	stem := strings.TrimSuffix(out, ".gsn")
	for i := 0; i < n; i++ {
		snet, err := asn.ShardNetwork(net, i)
		if err != nil {
			return err
		}
		path := fmt.Sprintf("%s.shard%d.gsn", stem, i)
		if err := dataset.SaveFile(path, snet); err != nil {
			return err
		}
		if indexM != "" {
			if err := emitIndex(path, indexM, "", buildJ); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	mapPath := stem + ".shardmap.json"
	m := asn.Map(net.Name, net.NumVertices(), net.Space())
	if err := shard.SaveMapFile(mapPath, m); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rrgen: %d %s shards written to %s.shard*.gsn, map %s\n",
		n, strategy, stem, mapPath)
	return nil
}

// emitIndex builds the requested index over the just-written network
// file and persists it next to it. Going through the saved file (not
// the in-memory network) guarantees the index pairs with exactly the
// bytes rrserve will load.
func emitIndex(netPath, methodName, indexPath string, parallelism int) error {
	m, ok := rangereach.ParseMethod(methodName)
	if !ok || !m.Persistable() {
		return fmt.Errorf("unknown -index method %q", methodName)
	}
	if indexPath == "" {
		indexPath = netPath + ".idx"
	}
	net, err := rangereach.LoadNetwork(netPath)
	if err != nil {
		return err
	}
	var opts []rangereach.Option
	if parallelism > 0 {
		opts = append(opts, rangereach.WithParallelism(parallelism))
	}
	idx, err := net.Build(m, opts...)
	if err != nil {
		return err
	}
	if err := idx.SaveFile(indexPath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rrgen: %s index written to %s (build %s)\n",
		m, indexPath, idx.Stats().BuildTime)
	return nil
}

// indexMethodNames lists the methods -index accepts: the ones
// Index.SaveFile has a format for.
func indexMethodNames() []string {
	var names []string
	for _, name := range rangereach.MethodNames() {
		if m, _ := rangereach.ParseMethod(name); m.Persistable() {
			names = append(names, name)
		}
	}
	return names
}

// emitQueries writes an rrquery batch file drawn from the paper's
// default workload parameters (degree bucket 50–99).
func emitQueries(net *dataset.Network, n int, extent float64, seed int64, path, netPath string) error {
	if path == "" {
		if netPath == "" {
			return fmt.Errorf("-emit-queries needs -queries-o or -o")
		}
		path = netPath + ".queries"
	}
	gen := workload.NewGenerator(net, seed+1000)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %d queries, %g%% extent, degree bucket %s\n",
		n, extent, workload.DefaultDegreeBucket)
	for _, q := range gen.Batch(n, extent, workload.DefaultDegreeBucket) {
		fmt.Fprintf(w, "%d %g %g %g %g\n",
			q.Vertex, q.Region.Min.X, q.Region.Min.Y, q.Region.Max.X, q.Region.Max.Y)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
