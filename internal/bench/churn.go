package bench

// Update-churn experiment: sustained update throughput of the dynamic
// index with concurrent readers, internal/incr's default (patching until
// a batch's work passes its budget, then rebuilding at the next read)
// A/B'd against the zero-budget reference arm, which rebuilds for every
// batch. This is the evaluation for the live-maintenance subsystem: the
// headline number is updates/sec per arm and the default-over-rebuild
// speedup, with query latency under churn alongside to show readers do
// not starve while the writer patches.

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/incr"
	"repro/internal/workload"
)

// churnBudget is the wall-clock budget per arm. A time budget (rather
// than an op count) keeps the experiment bounded even though the two
// arms differ by orders of magnitude in per-op cost.
const churnBudget = 1500 * time.Millisecond

// churnMaxOps caps the fast arm so a tiny dataset cannot spin millions
// of ops into the budget.
const churnMaxOps = 20000

// churnPublishEvery is the op-coalescing factor: the writer publishes a
// fresh snapshot after every batch of this many ops, mirroring rrserve's
// updater, which snapshots once per pending batch rather than per op.
// Publication shares the index's columns page by page, but it also
// flushes the deferred split checks and relabels, which a batch of
// deletes shares; per-op snapshots would measure that flush undiluted.
const churnPublishEvery = 32

// ChurnArm is one mode's measurement under the churn workload.
type ChurnArm struct {
	Mode          string
	Updates       int
	UpdatesPerSec float64
	// Concurrent snapshot-query latencies observed while the writer was
	// applying updates.
	QueryP50, QueryP99 time.Duration
}

// ChurnReport is one dataset's incremental-vs-rebuild comparison.
type ChurnReport struct {
	Dataset string
	Arms    []ChurnArm
	// SpeedupX is incremental updates/sec over full-rebuild updates/sec.
	SpeedupX float64
}

// UpdateChurn runs the churn experiment on every configured dataset and
// prints the comparison.
func (s *Suite) UpdateChurn() []ChurnReport {
	s.printf("\n== update churn: incremental vs full-rebuild maintenance ==\n")
	s.printf("%-18s %-12s %12s %12s %12s %10s\n",
		"dataset", "mode", "updates/s", "query p50", "query p99", "updates")
	var reports []ChurnReport
	for ds := range s.nets {
		rep := ChurnReport{Dataset: s.nets[ds].Name}
		var perSec [2]float64
		for i, mode := range []incr.Mode{incr.Incremental, incr.FullRebuild} {
			arm := s.churnArm(ds, mode)
			perSec[i] = arm.UpdatesPerSec
			rep.Arms = append(rep.Arms, arm)
			s.printf("%-18s %-12s %12.0f %12s %12s %10d\n",
				s.nets[ds].Name, arm.Mode, arm.UpdatesPerSec,
				fmtDuration(arm.QueryP50), fmtDuration(arm.QueryP99), arm.Updates)
		}
		if perSec[1] > 0 {
			rep.SpeedupX = perSec[0] / perSec[1]
		}
		s.printf("%-18s %-12s %11.1fx\n", s.nets[ds].Name, "speedup", rep.SpeedupX)
		reports = append(reports, rep)
	}
	return reports
}

// churnArm measures one mode: a single writer applies a deterministic
// op stream, publishing a snapshot per churnPublishEvery-op batch (the
// serving model), while a reader hammers the latest snapshot with the
// default query workload. Both arms consume the same op sequence
// prefix.
func (s *Suite) churnArm(ds int, mode incr.Mode) ChurnArm {
	x := incr.New(s.preps[ds], incr.Options{Mode: mode, Parallelism: s.cfg.Parallelism})
	qs := s.gens[ds].Batch(s.cfg.Queries, workload.DefaultExtent, workload.DefaultDegreeBucket)
	gen := newChurnOps(s.nets[ds], s.cfg.Seed)

	var snap atomic.Pointer[incr.Snapshot]
	snap.Store(x.Snapshot())
	stop := make(chan struct{})
	latc := make(chan []time.Duration, 1)
	go func() {
		var lats []time.Duration
		for i := 0; ; i++ {
			select {
			case <-stop:
				latc <- lats
				return
			default:
			}
			q := qs[i%len(qs)]
			sp := snap.Load()
			start := time.Now()
			sp.RangeReach(q.Vertex, q.Region)
			lats = append(lats, time.Since(start))
		}
	}()

	applied := 0
	begin := time.Now()
	for time.Since(begin) < churnBudget && applied < churnMaxOps {
		gen.apply(x)
		applied++
		if applied%churnPublishEvery == 0 {
			snap.Store(x.Snapshot())
		}
	}
	snap.Store(x.Snapshot())
	elapsed := time.Since(begin)
	close(stop)
	lats := <-latc

	lat := statsOf(lats)
	return ChurnArm{
		Mode:          modeName(mode),
		Updates:       applied,
		UpdatesPerSec: float64(applied) / elapsed.Seconds(),
		QueryP50:      lat.P50,
		QueryP99:      lat.P99,
	}
}

func modeName(m incr.Mode) string {
	if m == incr.FullRebuild {
		return "full-rebuild"
	}
	return "incremental"
}

// churnOps generates the deterministic stateful op stream both arms
// replay: edge inserts dominate (they exercise merge and relabel),
// with deletes drawn from edges the stream itself added (exercising
// split checks), venue adds and moves (exercising the spatial overlay),
// and occasional user adds.
type churnOps struct {
	rng    *rand.Rand
	n      int
	space  [4]float64
	edges  [][2]int
	seen   map[[2]int]bool
	venues []int
}

func newChurnOps(net *dataset.Network, seed int64) *churnOps {
	sp := net.Space()
	return &churnOps{
		rng:   rand.New(rand.NewSource(seed + 0xc472)),
		n:     net.NumVertices(),
		space: [4]float64{sp.Min.X, sp.Min.Y, sp.Max.X, sp.Max.Y},
		seen:  make(map[[2]int]bool),
	}
}

// churnTarget is what the stream drives: the dynamic index's update
// methods, which a test can wrap to record the ops.
type churnTarget interface {
	AddUser() int
	AddVenue(px, py float64) int
	DeleteEdge(u, v int) error
	MoveVenue(v int, px, py float64) error
	AddEdge(u, v int) error
}

// apply performs the next op of the stream on x. Ops are constructed to
// be valid by design; an engine rejection is a harness bug and panics.
func (g *churnOps) apply(x churnTarget) {
	switch k := g.rng.Intn(10); {
	case k < 1:
		id := x.AddUser()
		if id >= g.n {
			g.n = id + 1
		}
	case k < 2:
		px := g.space[0] + g.rng.Float64()*(g.space[2]-g.space[0])
		py := g.space[1] + g.rng.Float64()*(g.space[3]-g.space[1])
		id := x.AddVenue(px, py)
		if id >= g.n {
			g.n = id + 1
		}
		g.venues = append(g.venues, id)
	case k < 5 && len(g.edges) > 0:
		i := g.rng.Intn(len(g.edges))
		e := g.edges[i]
		g.edges[i] = g.edges[len(g.edges)-1]
		g.edges = g.edges[:len(g.edges)-1]
		delete(g.seen, e)
		if err := x.DeleteEdge(e[0], e[1]); err != nil {
			panic("bench: churn delete of tracked edge failed: " + err.Error())
		}
	case k < 6 && len(g.venues) > 0:
		px := g.space[0] + g.rng.Float64()*(g.space[2]-g.space[0])
		py := g.space[1] + g.rng.Float64()*(g.space[3]-g.space[1])
		if err := x.MoveVenue(g.venues[g.rng.Intn(len(g.venues))], px, py); err != nil {
			panic("bench: churn move of tracked venue failed: " + err.Error())
		}
	default:
		u, v := g.rng.Intn(g.n), g.rng.Intn(g.n)
		if err := x.AddEdge(u, v); err != nil {
			panic("bench: churn add_edge failed: " + err.Error())
		}
		e := [2]int{u, v}
		// The engine drops self-loops and duplicates, so only a novel
		// non-loop edge is a safe future delete target.
		if u != v && !g.seen[e] {
			g.seen[e] = true
			g.edges = append(g.edges, e)
		}
	}
}
