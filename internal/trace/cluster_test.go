package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	if len(tid) != 32 || len(sid) != 16 {
		t.Fatalf("id lengths: trace=%d span=%d", len(tid), len(sid))
	}
	header := FormatTraceparent(tid, sid)
	gotT, gotS, ok := ParseTraceparent(header)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip %q: got (%q, %q, %v)", header, gotT, gotS, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-abc-def-01", // too short
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // wrong version
		"00-0af7651916cd43dd8448eb211c80319c+b7ad6b7169203331-01", // bad separator
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // uppercase hex
		"00-0af7651916cd43dd8448eb211c80319x-b7ad6b7169203331-01", // non-hex
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestNewTraceIDsDiffer(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

// TestSamplerDeterminism: with a fixed request sequence the retention
// decisions are a pure function of the tick counter — slow and error
// traces always kept, exactly one in N of the healthy rest.
func TestSamplerDeterminism(t *testing.T) {
	s := &Sampler{N: 4, Slow: 100 * time.Millisecond}

	// Forced, error and slow traces are kept without consuming a tick.
	for i, tc := range []struct {
		elapsed time.Duration
		isErr   bool
		forced  bool
		want    string
	}{
		{time.Millisecond, false, true, ReasonForced},
		{time.Millisecond, true, false, ReasonError},
		{150 * time.Millisecond, false, false, ReasonSlow},
		{100 * time.Millisecond, false, false, ReasonSlow}, // boundary inclusive
	} {
		keep, reason := s.Keep(tc.elapsed, tc.isErr, tc.forced)
		if !keep || reason != tc.want {
			t.Fatalf("case %d: got (%v, %q), want (true, %q)", i, keep, reason, tc.want)
		}
	}
	if s.tick.Load() != 0 {
		t.Fatalf("always-keep decisions consumed %d sampling ticks", s.tick.Load())
	}

	// Healthy fast traces: exactly every 4th is kept, deterministically.
	var pattern []bool
	for i := 0; i < 12; i++ {
		keep, reason := s.Keep(time.Millisecond, false, false)
		if keep && reason != ReasonSampled {
			t.Fatalf("healthy keep %d: reason %q", i, reason)
		}
		pattern = append(pattern, keep)
	}
	kept := 0
	for i, k := range pattern {
		if k {
			kept++
			if (i+1)%4 != 0 {
				t.Fatalf("kept healthy trace at position %d; pattern %v", i, pattern)
			}
		}
	}
	if kept != 3 {
		t.Fatalf("kept %d of 12 healthy traces, want 3 (pattern %v)", kept, pattern)
	}

	// N <= 0: healthy traces are never kept, slow ones still are.
	none := &Sampler{N: 0, Slow: time.Second}
	if keep, _ := none.Keep(time.Millisecond, false, false); keep {
		t.Fatal("N=0 kept a healthy trace")
	}
	if keep, _ := none.Keep(2*time.Second, false, false); !keep {
		t.Fatal("N=0 dropped a slow trace")
	}
}

func TestRingEvictionAndLookup(t *testing.T) {
	r := NewRing(3)
	mk := func(i int) *ClusterTrace {
		return &ClusterTrace{TraceID: fmt.Sprintf("t%02d", i), DurationNS: int64(i)}
	}
	for i := 0; i < 5; i++ {
		r.Put(mk(i))
	}
	if r.Len() != 3 {
		t.Fatalf("ring holds %d traces, want 3", r.Len())
	}
	// t00 and t01 were evicted; t02..t04 remain.
	for i := 0; i < 2; i++ {
		if got := r.Get(fmt.Sprintf("t%02d", i)); got != nil {
			t.Errorf("evicted trace t%02d still retrievable", i)
		}
	}
	for i := 2; i < 5; i++ {
		got := r.Get(fmt.Sprintf("t%02d", i))
		if got == nil || got.DurationNS != int64(i) {
			t.Errorf("trace t%02d: got %+v", i, got)
		}
	}
	// Recent returns newest first.
	recent := r.Recent(2)
	if len(recent) != 2 || recent[0].TraceID != "t04" || recent[1].TraceID != "t03" {
		ids := make([]string, len(recent))
		for i, tr := range recent {
			ids[i] = tr.TraceID
		}
		t.Fatalf("Recent(2) = %v, want [t04 t03]", ids)
	}
	if got := r.Recent(0); len(got) != 3 {
		t.Fatalf("Recent(0) returned %d, want all 3", len(got))
	}
}

// TestRingConcurrentReadersAndWriters drives the ring the way a live
// router does — scatter-gather goroutines storing traces while
// /v1/trace readers and the rrtop recent-pane poll it — and relies on
// the race detector for the verdict. Each reader calls one method only,
// so a method that skips the lock has no ordering with the writers even
// when the scheduler runs the goroutines one after another.
func TestRingConcurrentReadersAndWriters(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Put(&ClusterTrace{
					TraceID: fmt.Sprintf("w%d-%d", w, i),
					Spans:   []ClusterSpan{{Name: "fanout", Tier: TierRouter, Shard: NoShard}},
				})
			}
		}(w)
	}
	for _, read := range []func(i int){
		func(i int) { _ = r.Get(fmt.Sprintf("w%d-%d", i%4, i)) },
		func(int) {
			for _, tr := range r.Recent(4) {
				_ = tr.ShardSpans(0)
			}
		},
		func(int) {
			if n := r.Len(); n > 8 {
				t.Errorf("ring holds %d traces mid-churn, capacity 8", n)
			}
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				read(i)
			}
		}()
	}
	wg.Wait()
	if r.Len() == 0 || r.Len() > 8 {
		t.Fatalf("ring holds %d traces after churn", r.Len())
	}
}

func TestShardSpans(t *testing.T) {
	tr := &ClusterTrace{Spans: []ClusterSpan{
		{Name: "placement", Tier: TierRouter, Shard: NoShard},
		{Name: "shard_call", Tier: TierShard, Shard: 1},
		{Name: "shard_call", Tier: TierShard, Shard: 0},
		{Name: "hedge", Tier: TierShard, Shard: 1},
	}}
	if got := tr.ShardSpans(1); len(got) != 2 || got[0].Name != "shard_call" || got[1].Name != "hedge" {
		t.Fatalf("ShardSpans(1) = %+v", got)
	}
	if got := tr.ShardSpans(2); got != nil {
		t.Fatalf("ShardSpans(2) = %+v, want nil", got)
	}
}
