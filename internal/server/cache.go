package server

import (
	"container/list"
	"math"
	"sync"

	rangereach "repro"
)

// cacheKey identifies one RangeReach result: the query vertex plus the
// normalized region.
type cacheKey struct {
	vertex int
	region rangereach.Rect
}

// numShards spreads lock contention; a power of two so the hash maps to
// a shard with a mask.
const numShards = 16

// queryCache is a sharded LRU of RangeReach answers with
// generation-based invalidation: every entry is stamped with the index
// generation it was computed against, and a lookup under a newer
// generation treats the entry as a miss and drops it. Static indexes
// never change generation, so their entries live until evicted; dynamic
// mode bumps the generation on every snapshot swap, invalidating the
// whole cache in O(1) without touching entries.
type queryCache struct {
	shards [numShards]cacheShard
}

type cacheShard struct {
	mu    sync.Mutex
	m     map[cacheKey]*list.Element // guarded by mu
	order *list.List                 // guarded by mu — front = most recently used
	cap   int                        // immutable after construction
}

type cacheEntry struct {
	key cacheKey
	gen uint64
	val bool
}

// newQueryCache builds a cache holding about capacity entries total.
// Capacity below numShards still grants each shard one slot.
func newQueryCache(capacity int) *queryCache {
	per := capacity / numShards
	if per < 1 {
		per = 1
	}
	c := &queryCache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			m:     make(map[cacheKey]*list.Element),
			order: list.New(),
			cap:   per,
		}
	}
	return c
}

// shardFor hashes the key with FNV-1a over its scalar fields.
func (c *queryCache) shardFor(k cacheKey) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(k.vertex))
	mix(math.Float64bits(k.region.MinX))
	mix(math.Float64bits(k.region.MinY))
	mix(math.Float64bits(k.region.MaxX))
	mix(math.Float64bits(k.region.MaxY))
	return &c.shards[h&(numShards-1)]
}

// Get returns the cached answer for k computed at generation gen.
// Entries from older generations are evicted on sight.
func (c *queryCache) Get(k cacheKey, gen uint64) (val, ok bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[k]
	if !ok {
		return false, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		s.order.Remove(el)
		delete(s.m, k)
		return false, false
	}
	s.order.MoveToFront(el)
	return e.val, true
}

// Put stores the answer for k computed at generation gen, evicting the
// least recently used entry of the shard when full.
func (c *queryCache) Put(k cacheKey, gen uint64, val bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		e := el.Value.(*cacheEntry)
		e.gen = gen
		e.val = val
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.cap {
		back := s.order.Back()
		if back != nil {
			s.order.Remove(back)
			delete(s.m, back.Value.(*cacheEntry).key)
		}
	}
	s.m[k] = s.order.PushFront(&cacheEntry{key: k, gen: gen, val: val})
}

// Len reports the current number of entries (tests only).
func (c *queryCache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.order.Len()
		s.mu.Unlock()
	}
	return total
}
