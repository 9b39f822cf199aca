package pool

import (
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryTaskOnce(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		p := New(size)
		const n = 1000
		counts := make([]atomic.Int32, n)
		p.ForEach(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("size %d: task %d ran %d times", size, i, got)
			}
		}
	}
}

// TestForEachDeterministicOrdering is the contract the parallel builders
// rely on: results written to slot i from task i produce the same slice
// regardless of pool size or scheduling.
func TestForEachDeterministicOrdering(t *testing.T) {
	const n = 500
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, size := range []int{1, 3, 16} {
		got := make([]int, n)
		New(size).ForEach(n, func(i int) { got[i] = i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("size %d: slot %d = %d, want %d", size, i, got[i], want[i])
			}
		}
	}
}

func TestForEachPanicPropagation(t *testing.T) {
	p := New(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
		pan, ok := r.(*Panic)
		if !ok {
			t.Fatalf("recovered %T, want *Panic", r)
		}
		if pan.Value != "kaput" {
			t.Fatalf("panic value = %v, want kaput", pan.Value)
		}
		if pan.Task != 7 {
			t.Fatalf("panic task = %d, want 7", pan.Task)
		}
		if len(pan.Stack) == 0 {
			t.Fatal("panic carries no worker stack")
		}
	}()
	p.ForEach(32, func(i int) {
		if i == 7 {
			panic("kaput")
		}
	})
}

func TestSequentialPanicUnwrapped(t *testing.T) {
	// Size-1 pools are the exact old code path: panics propagate as-is.
	defer func() {
		if r := recover(); r != "raw" {
			t.Fatalf("recovered %v, want raw", r)
		}
	}()
	New(1).ForEach(4, func(i int) {
		if i == 2 {
			panic("raw")
		}
	})
}

func TestRun(t *testing.T) {
	var a, b atomic.Bool
	New(2).Run(
		func() { a.Store(true) },
		func() { b.Store(true) },
	)
	if !a.Load() || !b.Load() {
		t.Fatalf("Run: a=%v b=%v", a.Load(), b.Load())
	}
	New(2).Run() // no task: returns at once
}

func TestLevelsSynchronization(t *testing.T) {
	// Vertices of level l+1 read state written by level l; the barrier
	// between levels makes that safe. Model it: each vertex records the
	// number of completed predecessors it observed.
	const perLevel, nLevels = 300, 5
	levels := make([][]int32, nLevels)
	id := int32(0)
	for l := range levels {
		for i := 0; i < perLevel; i++ {
			levels[l] = append(levels[l], id)
			id++
		}
	}
	for _, size := range []int{1, 4} {
		done := make([]atomic.Bool, int(id))
		ok := atomic.Bool{}
		ok.Store(true)
		New(size).Levels(levels, func(v int32) {
			level := int(v) / perLevel
			// Every vertex of every earlier level must be complete.
			for u := 0; u < level*perLevel; u++ {
				if !done[u].Load() {
					ok.Store(false)
				}
			}
			done[v].Store(true)
		})
		if !ok.Load() {
			t.Fatalf("size %d: a vertex ran before its predecessor level completed", size)
		}
		for v := range done {
			if !done[v].Load() {
				t.Fatalf("size %d: vertex %d never ran", size, v)
			}
		}
	}
}

func TestNewDefaultsAndNilPool(t *testing.T) {
	if New(0).Size() < 1 {
		t.Fatal("New(0) must select at least one worker")
	}
	var p *Pool
	if p.Size() != 1 || !p.Sequential() {
		t.Fatal("nil pool must behave sequentially")
	}
	n := 0
	p.ForEach(3, func(int) { n++ })
	if n != 3 {
		t.Fatalf("nil pool ForEach: n=%d", n)
	}
}
