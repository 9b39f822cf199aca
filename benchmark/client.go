package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// clients is the closed loop's width: the callers of rrserve and
// rrrouter (application back ends, and rrrouter itself) each wait for a
// reply before sending the next request. Two matches the reference
// box's two cores; an open-loop ramp past saturation is a later issue.
const clients = 2

// reply is the part of a /v1/query response the benchmark reads, from
// either tier: rrserve sets cached, rrrouter sets shards.
type reply struct {
	Reachable bool `json:"reachable"`
	Cached    bool `json:"cached"`
	Shards    int  `json:"shards"`
}

// client owns one keep-alive connection. The benchmark brings its own
// client because a generator that costs more than the server hides the
// server (rrload reports 0.4–0.8 ms against a 44 µs request).
type client struct {
	http *http.Client
	url  string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		url: base + "/v1/query",
		http: &http.Client{
			Timeout:   2 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) query(body []byte) (reply, error) {
	var rep reply
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	_ = resp.Body.Close() // read to the end above; closing only returns the connection
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	err = json.Unmarshal(c.buf.Bytes(), &rep)
	return rep, err
}

// drawFunc picks the next pool index for one client.
type drawFunc func() int

// uniformDraw draws with replacement: with the pool 16× the result
// cache, about one request in sixteen hits.
func uniformDraw(n int, rng *rand.Rand) drawFunc {
	return func() int { return rng.Intn(n) }
}

// zipfDraw draws ranks Zipf(s = 1.1) and maps them through perm, a
// seed-shuffled permutation shared by all clients, so the hot set is a
// different slice of the pool on every seed.
func zipfDraw(perm []int, rng *rand.Rand) drawFunc {
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(perm)-1))
	return func() int { return perm[z.Uint64()] }
}

// loopStats is what a closed-loop phase observed.
type loopStats struct {
	slices    []latencies // per time slice, all clients merged
	attempted int64
	failed    int64
	cached    int64
	shards    int64
	firstErr  error
}

// closedLoop runs `clients` clients against base for dur, each sending
// its next request when the previous reply arrives, and checks every
// answer against the pool's oracle. Latencies are kept per slice so the
// caller can report medians over slices.
func closedLoop(base string, p *pool, draws []drawFunc, dur, slice time.Duration, tr *tracer) loopStats {
	nslices := int(dur / slice)
	per := make([]loopStats, len(draws))
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range draws {
		wg.Add(1)
		go func(st *loopStats, draw drawFunc, spans *spanBuf) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			st.slices = make([]latencies, nslices)
			for {
				i := draw()
				t := time.Now()
				s := int(t.Sub(start) / slice)
				if s >= nslices {
					return
				}
				rep, err := c.query(p.bodies[i])
				end := time.Now()
				st.attempted++
				spans.add(i, "client", "", t, end)
				switch {
				case err != nil:
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
				case rep.Reachable != p.want[i]:
					st.failed++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("query %d: got %v, oracle says %v", i, rep.Reachable, p.want[i])
					}
				default:
					st.slices[s] = append(st.slices[s], nanos(end.Sub(t)))
					if rep.Cached {
						st.cached++
					}
					st.shards += int64(rep.Shards)
				}
			}
		}(&per[ci], draws[ci], tr.buf())
	}
	wg.Wait()
	total := loopStats{slices: make([]latencies, nslices)}
	for _, st := range per {
		for s := range st.slices {
			total.slices[s] = append(total.slices[s], st.slices[s]...)
		}
		total.attempted += st.attempted
		total.failed += st.failed
		total.cached += st.cached
		total.shards += st.shards
		if total.firstErr == nil {
			total.firstErr = st.firstErr
		}
	}
	return total
}

// summarize turns per-slice latencies into the three served metrics.
// Outside noise on a shared box only ever slows a slice, so throughput
// and p50 are the better quartile over slices — nearer the undisturbed
// value than the median when a few seconds of a run are disturbed. p99
// stays a median: a tail metric should not be picked from the calmest
// slices.
func (st loopStats) summarize(slice time.Duration) (qps, p50, p99 float64, samples int) {
	var qs, p50s, p99s []float64
	for _, l := range st.slices {
		if len(l) == 0 {
			continue
		}
		m := l.micros()
		qs = append(qs, float64(len(l))/slice.Seconds())
		p50s = append(p50s, quantile(m, 0.50))
		p99s = append(p99s, quantile(m, 0.99))
		samples += len(l)
	}
	_, _, qps = quartiles(qs)
	p50, _, _ = quartiles(p50s)
	return qps, p50, median(p99s), samples
}
