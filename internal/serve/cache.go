package serve

import (
	"container/list"
	"strings"
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

// rawKey identifies one request's query text, unparsed, at one generation
// and endpoint. Texts that parse to one cacheKey (reordered parameters,
// escapes, lambda_h=-0 and 0) are distinct rawKeys sharing one body.
type rawKey struct {
	gen   uint64
	kind  cacheKind
	query string
}

// resultCache holds finished route and ratio bodies under two indexes of
// CacheSize entries each. raw answers a repeated query text before any
// parsing; keyed answers a query that parses to a stored computation. A
// handler files a body under its raw text only after keyed served it or
// the handler computed it, so the two never disagree on an answer. The
// value is inert when caching is disabled (both indexes nil).
type resultCache struct {
	raw   *lru[rawKey]
	keyed *lru[cacheKey]
}

func newResultCache(max int) resultCache {
	return resultCache{raw: newLRUOf[rawKey](max), keyed: newLRU(max)}
}

// maxRawQuery is the longest query text the raw index files. net/http
// admits a request line up to its 1 MB header limit, so without a bound a
// client could park that much in every raw entry; a longer text is
// answered through the parsed path on every ask.
const maxRawQuery = 512

// putRaw files body under k. The key keeps a clone of the query text, so
// an entry never pins the request line the text was cut from.
func (c resultCache) putRaw(k rawKey, body []byte) {
	if c.raw == nil || len(k.query) > maxRawQuery {
		return
	}
	k.query = strings.Clone(k.query)
	c.raw.Put(k, body)
}

// Reset empties both indexes.
func (c resultCache) Reset() {
	c.raw.Reset()
	c.keyed.Reset()
}

// lru is a small mutex-guarded LRU from a key to a finished response body.
// A stored body is shared by every hit that serves it, so nothing may write
// to it after Put. A nil *lru (caching disabled) is inert.
type lru[K comparable] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[K]*list.Element

	hits, misses atomic.Uint64
}

type lruEntry[K comparable] struct {
	key K
	val []byte
}

// newLRU returns the keyed index: newLRUOf over cacheKey.
func newLRU(max int) *lru[cacheKey] { return newLRUOf[cacheKey](max) }

// newLRUOf returns a cache holding up to max entries, or nil (disabled)
// when max is negative.
func newLRUOf[K comparable](max int) *lru[K] {
	if max < 0 {
		return nil
	}
	return &lru[K]{max: max, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the cached value for k, marking it most recently used.
func (c *lru[K]) Get(k K) ([]byte, bool) {
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
	return el.Value.(*lruEntry[K]).val, true
}

// Put inserts or refreshes k, evicting the least recently used entry when
// over capacity.
func (c *lru[K]) Put(k K, v []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry[K]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry[K]{key: k, val: v})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K]).key)
	}
}

// Reset drops every entry (hit/miss counters survive: they are lifetime
// statistics, not per-generation ones).
func (c *lru[K]) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[K]*list.Element)
}

// Len returns the current entry count.
func (c *lru[K]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the lifetime hit and miss counts.
func (c *lru[K]) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
