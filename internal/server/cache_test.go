package server

import (
	"sync"
	"testing"

	rangereach "repro"
)

func key(v int, x float64) cacheKey {
	return cacheKey{vertex: v, region: rangereach.Rect{MinX: x, MinY: x, MaxX: x + 1, MaxY: x + 1}}
}

func TestCacheHitMissAndUpdate(t *testing.T) {
	c := newQueryCache(64)
	k := key(1, 0)
	if _, ok := c.Get(k, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 0, true)
	if v, ok := c.Get(k, 0); !ok || !v {
		t.Fatalf("Get = (%v,%v), want (true,true)", v, ok)
	}
	c.Put(k, 0, false) // overwrite
	if v, ok := c.Get(k, 0); !ok || v {
		t.Fatalf("after overwrite Get = (%v,%v), want (false,true)", v, ok)
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	c := newQueryCache(64)
	k := key(7, 3)
	c.Put(k, 1, true)
	if _, ok := c.Get(k, 2); ok {
		t.Fatal("stale generation served")
	}
	// The stale entry is dropped, not resurrected by an old-gen lookup.
	if _, ok := c.Get(k, 1); ok {
		t.Fatal("dropped entry still present")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// numShards slots total: one per shard, so two keys mapping to the
	// same shard evict each other.
	c := newQueryCache(numShards)
	var a, b cacheKey
	shard := c.shardFor(key(0, 0))
	a = key(0, 0)
	found := false
	for i := 1; i < 10000; i++ {
		b = key(i, float64(i))
		if c.shardFor(b) == shard {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("could not find two keys on one shard")
	}
	c.Put(a, 0, true)
	c.Put(b, 0, true)
	if _, ok := c.Get(a, 0); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := c.Get(b, 0); !ok {
		t.Error("most recent entry evicted")
	}
}

func TestCacheBoundedSize(t *testing.T) {
	c := newQueryCache(128)
	for i := 0; i < 10000; i++ {
		c.Put(key(i, float64(i)), 0, i%2 == 0)
	}
	if got := c.Len(); got > 128 {
		t.Fatalf("cache grew to %d entries, cap 128", got)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newQueryCache(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key((base*2000+i)%500, float64(i%100))
				c.Put(k, uint64(i%3), true)
				c.Get(k, uint64(i%3))
			}
		}(w)
	}
	// Len on a goroutine of its own: it shares no lock with the workers
	// but the ones Len itself takes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if n := c.Len(); n > 256 {
				t.Errorf("cache holds %d entries mid-churn, cap 256", n)
				return
			}
		}
	}()
	wg.Wait()
	if c.Len() > 256 {
		t.Fatalf("cache grew to %d entries, cap 256", c.Len())
	}
}
