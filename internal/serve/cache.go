package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cacheKind separates the key spaces of the cached result types.
type cacheKind uint8

const (
	kindRoute cacheKind = iota
	kindRatio
)

// cacheKey identifies one cacheable computation. The generation is part of
// the key: a snapshot swap therefore invalidates every prior entry without
// readers and writers ever coordinating, and a request still running on an
// old snapshot writes only old-generation keys.
type cacheKey struct {
	gen      uint64
	kind     cacheKind
	network  string
	src, dst int
	lambdaH  float64
	lambdaF  float64
}

// lru is a small mutex-guarded LRU from cacheKey to a finished response
// body. A stored body is shared by every hit that serves it, so nothing may
// write to it after Put. A nil *lru (caching disabled) is inert.
type lru struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[cacheKey]*list.Element

	hits, misses atomic.Uint64
}

type lruEntry struct {
	key cacheKey
	val []byte
}

// newLRU returns a cache holding up to max entries, or nil (disabled) when
// max is negative.
func newLRU(max int) *lru {
	if max < 0 {
		return nil
	}
	return &lru{max: max, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

// Get returns the cached value for k, marking it most recently used.
func (c *lru) Get(k cacheKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes k, evicting the least recently used entry when
// over capacity.
func (c *lru) Put(k cacheKey, v []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Reset drops every entry (hit/miss counters survive: they are lifetime
// statistics, not per-generation ones).
func (c *lru) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[cacheKey]*list.Element)
}

// Len returns the current entry count.
func (c *lru) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the lifetime hit and miss counts.
func (c *lru) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
