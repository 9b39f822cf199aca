package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	rr "repro"
	"repro/internal/dataset"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/shard"
)

// datasetSeed fixes the networks: the workload seed varies the queries
// and the op stream, never the data, so index_bytes and the build side
// of setup_s compare like with like across seeds.
const datasetSeed = 1

// serveConfig mirrors cmd/rrserve's flag defaults (cache 4096, 2 s
// budget, 8 MiB body cap, 250 ms slow-query mark) with request logging
// off, so the benchmark serves what a default rrserve serves.
func serveConfig(idx *rr.Index, shardID string) server.Config {
	return server.Config{
		Index:        idx,
		CacheEntries: 4096,
		QueryTimeout: 2 * time.Second,
		MaxBodyBytes: 8 << 20,
		SlowQuery:    250 * time.Millisecond,
		ShardID:      shardID,
	}
}

// listener serves one handler on a loopback port inside this process.
type listener struct {
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close drains in-flight requests and returns once Serve has.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close() // drain timed out: drop the connections instead
	}
	<-l.done
}

// servedFixture is a default rrserve over a built 3DReach index of the
// gowalla-like network.
type servedFixture struct {
	idx *rr.Index
	srv *server.Server
	ln  *listener
}

func setupServed(cfg config) (*servedFixture, error) {
	idx, err := rr.GowallaLike(cfg.scale, datasetSeed).Build(rr.ThreeDReach)
	if err != nil {
		return nil, err
	}
	return serveIndex(idx)
}

// serveIndex starts a default rrserve, cache cold, over idx.
func serveIndex(idx *rr.Index) (*servedFixture, error) {
	f := &servedFixture{idx: idx}
	var err error
	if f.srv, err = server.New(serveConfig(idx, "")); err != nil {
		return nil, err
	}
	if f.ln, err = listen(f.srv.Handler()); err != nil {
		f.srv.Close()
		return nil, err
	}
	return f, nil
}

func (f *servedFixture) close() {
	f.ln.close()
	f.srv.Close()
}

func (f *servedFixture) url() string       { return f.ln.url }
func (f *servedFixture) indexBytes() int64 { return f.idx.Stats().Bytes }

// clusterFixture is rrrouter in front of two rrserve shards, each
// serving a memory-mapped index file the way `rrgen -shards -index`
// plus `rrserve -load-index -mmap` would.
type clusterFixture struct {
	asn       *shard.Assignment
	shards    []*rr.Index
	servers   []*server.Server
	backends  []*listener
	router    *router.Router
	front     *listener
	partition time.Duration
}

const clusterShards = 2

func setupCluster(cfg config) (f *clusterFixture, err error) {
	f = &clusterFixture{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	net := dataset.GowallaLike(cfg.scale, datasetSeed)
	t := time.Now()
	if f.asn, err = shard.Partition(net, clusterShards, shard.Spatial); err != nil {
		return f, err
	}
	f.partition = time.Since(t)

	// The router places shards on backends by consistent hashing, so the
	// listeners must exist before we know which shard each one serves.
	handlers := make([]*swapHandler, clusterShards)
	urls := make([]string, clusterShards)
	for i := range handlers {
		handlers[i] = &swapHandler{}
		ln, err := listen(handlers[i])
		if err != nil {
			return f, err
		}
		f.backends = append(f.backends, ln)
		urls[i] = ln.url
	}
	m := f.asn.Map(net.Name, net.NumVertices(), net.Space())
	if f.router, err = router.New(router.Config{Map: m, Backends: urls}); err != nil {
		return f, err
	}
	for i := 0; i < clusterShards; i++ {
		idx, err := mappedShard(cfg.dir, f.asn, net, i)
		if err != nil {
			return f, fmt.Errorf("shard %d: %w", i, err)
		}
		f.shards = append(f.shards, idx)
		srv, err := server.New(serveConfig(idx, strconv.Itoa(i)))
		if err != nil {
			return f, err
		}
		f.servers = append(f.servers, srv)
		for j, u := range urls {
			if u == f.router.BackendFor(i) {
				handlers[j].h = srv.Handler()
			}
		}
	}
	f.front, err = listen(f.router.Handler())
	return f, err
}

// swapHandler lets a listener start before its handler is known. h is
// set once, before any request is sent.
type swapHandler struct{ h http.Handler }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

// mappedShard writes shard i's network, builds and saves its index, and
// reopens it mapped.
func mappedShard(dir string, asn *shard.Assignment, net *dataset.Network, i int) (*rr.Index, error) {
	snet, err := asn.ShardNetwork(net, i)
	if err != nil {
		return nil, err
	}
	netPath := filepath.Join(dir, fmt.Sprintf("shard%d.gsn", i))
	if err := dataset.SaveFile(netPath, snet); err != nil {
		return nil, err
	}
	rnet, err := rr.LoadNetwork(netPath)
	if err != nil {
		return nil, err
	}
	built, err := rnet.Build(rr.ThreeDReach)
	if err != nil {
		return nil, err
	}
	idxPath := netPath + ".idx"
	if err := built.SaveFile(idxPath); err != nil {
		return nil, err
	}
	return rnet.OpenMapped(idxPath)
}

func (f *clusterFixture) close() {
	if f.front != nil {
		f.front.close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, ln := range f.backends {
		ln.close()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	for _, idx := range f.shards {
		_ = idx.Close() // only unmaps; nothing was written through the map
	}
}

func (f *clusterFixture) url() string { return f.front.url }

func (f *clusterFixture) indexBytes() int64 {
	var n int64
	for _, idx := range f.shards {
		n += idx.Stats().Bytes
	}
	return n
}

// scratchDir creates the benchmark's only writable directory.
func scratchDir() (string, error) {
	dir := "out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
