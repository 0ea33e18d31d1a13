package serve

import "testing"

func key(gen uint64, src, dst int) cacheKey {
	return cacheKey{gen: gen, kind: kindRoute, network: "Sprint", src: src, dst: dst,
		lambdaH: 1e5, lambdaF: 1e3}
}

func TestLRUBasics(t *testing.T) {
	c := newLRU(2)
	if _, ok := c.Get(key(1, 0, 1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(1, 0, 1), []byte("a"))
	c.Put(key(1, 0, 2), []byte("b"))
	if v, ok := c.Get(key(1, 0, 1)); !ok || string(v) != "a" {
		t.Fatalf("get a: %q %v", v, ok)
	}
	// Capacity 2: inserting a third evicts the least recently used ("b",
	// since "a" was just touched).
	c.Put(key(1, 0, 3), []byte("c"))
	if _, ok := c.Get(key(1, 0, 2)); ok {
		t.Fatal("LRU victim survived eviction")
	}
	if _, ok := c.Get(key(1, 0, 1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}

	// Same query at a different generation is a different key: swaps
	// invalidate implicitly.
	if _, ok := c.Get(key(2, 0, 1)); ok {
		t.Fatal("generation leak: gen-2 key hit a gen-1 entry")
	}

	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("len %d after Reset", c.Len())
	}
	if _, ok := c.Get(key(1, 0, 1)); ok {
		t.Fatal("hit after Reset")
	}
	hits, misses := c.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats not counting: hits=%d misses=%d", hits, misses)
	}
}

func TestLRUPutReplaces(t *testing.T) {
	c := newLRU(4)
	c.Put(key(1, 0, 1), []byte("old"))
	c.Put(key(1, 0, 1), []byte("new"))
	if v, _ := c.Get(key(1, 0, 1)); string(v) != "new" {
		t.Fatalf("got %q, want new", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d after replacing put, want 1", c.Len())
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRU(-1)
	if c != nil {
		t.Fatal("negative capacity should disable the cache")
	}
	// All operations are nil-safe no-ops.
	c.Put(key(1, 0, 1), []byte("a"))
	if _, ok := c.Get(key(1, 0, 1)); ok {
		t.Fatal("nil cache hit")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("nil cache has length")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil cache stats: %d %d", h, m)
	}
}
