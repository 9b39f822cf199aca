// Package pool implements the bounded worker pool behind the parallel
// index-construction pipeline: a fixed number of workers drain an
// indexed task range with panic capture and deterministic result
// ordering. Tasks return nothing: no build step fails.
//
// The pool itself never touches results — callers write into slot i of
// a pre-sized slice from task i, so the output layout is independent of
// worker scheduling. Determinism of the built indexes then follows from
// the builders' own structure (each task writes only its own state from
// already-completed inputs); the pool guarantees only that every task
// runs at most once and that all started tasks finish before ForEach
// returns.
//
// A pool of size 1 runs tasks inline on the calling goroutine, in task
// order, with no goroutines, channels or atomics involved — the exact
// sequential code path, so `WithParallelism(1)` builds behave (and
// panic) precisely like the pre-parallel library.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is a reusable worker-pool handle. It holds no goroutines between
// calls — workers are spawned per ForEach/Run and joined before return
// — so a Pool is safe for concurrent use and free to keep around.
type Pool struct {
	size int
}

// New returns a pool of the given size. n <= 0 selects runtime.NumCPU().
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Pool{size: n}
}

// Size returns the worker count.
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.size
}

// Sequential reports whether the pool runs tasks inline (nil pool or
// size 1). Builders use it to keep their exact pre-parallel code path.
func (p *Pool) Sequential() bool { return p.Size() <= 1 }

// Panic wraps a panic captured on a worker goroutine: the original
// value, the task index it came from, and the worker's stack at capture
// time. ForEach re-panics with a *Panic on the calling goroutine, so a
// worker panic surfaces where the work was requested instead of
// crashing the process from an anonymous goroutine.
type Panic struct {
	Task  int
	Value any
	Stack []byte
}

// Error implements error, so a recovered *Panic prints usefully.
func (p *Panic) Error() string {
	return fmt.Sprintf("pool: task %d panicked: %v\n%s", p.Task, p.Value, p.Stack)
}

// ForEach runs fn(i) for every i in [0, n), using up to Size() workers.
// A worker panic stops dispatch — no new task starts, tasks already
// running complete — and the panic of the lowest such task is re-raised
// on the calling goroutine as a *Panic.
//
// On a sequential pool, ForEach is a plain loop: fn runs in index
// order on the calling goroutine and panics propagate unwrapped.
func (p *Pool) ForEach(n int, fn func(i int)) {
	workers := min(p.Size(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next atomic.Int64 // next task index to hand out
		stop atomic.Bool  // set on the first panic; halts dispatch

		mu  sync.Mutex
		pan *Panic

		wg sync.WaitGroup
	)
	runTask := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				mu.Lock()
				if pan == nil || i < pan.Task {
					pan = &Panic{Task: i, Value: r, Stack: debug.Stack()}
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runTask(i)
			}
		}()
	}
	wg.Wait()
	if pan != nil {
		panic(pan)
	}
}

// Run executes a fixed set of heterogeneous tasks — the nodes of a
// small build-dependency DAG stage — with ForEach semantics: all tasks
// of one Run call are independent; sequencing between dependent stages
// is expressed by consecutive Run calls.
func (p *Pool) Run(tasks ...func()) {
	p.ForEach(len(tasks), func(i int) { tasks[i]() })
}

// Levels runs fn(v) for every vertex of every level, one level at a
// time: all vertices of level l complete before level l+1 starts. It is
// the level-synchronous schedule the propagation-style builders
// (interval labeling, BFL filters, SPA-Graph classification) use —
// vertices within a level have no edges between them, so each can read
// its neighbors' finished state and write only its own.
func (p *Pool) Levels(levels [][]int32, fn func(v int32)) {
	for _, level := range levels {
		// Chunk the level so workers grab batches, not single vertices:
		// levels in real condensation DAGs hold thousands of cheap tasks
		// and per-task atomics would dominate.
		const chunk = 256
		p.ForEach((len(level)+chunk-1)/chunk, func(i int) {
			for _, v := range level[i*chunk : min((i+1)*chunk, len(level))] {
				fn(v)
			}
		})
	}
}
