package serve

import (
	"fmt"
	"slices"
	"testing"

	"riskroute/internal/stats"
)

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

// TestLRUMatchesModel drives the LRU with seeded random Gets, Puts and
// Resets at capacities 0, 1, 3 and 8 and holds it to a model that keeps
// its keys in a slice, most recent first: every Get's answer, Len, the
// hit/miss counts and, at the end, the recency order (walked through the
// entries' links both ways) must agree.
func TestLRUMatchesModel(t *testing.T) {
	for _, max := range []int{0, 1, 3, 8} {
		rng := stats.NewRNG(uint64(max) + 1)
		c := newLRU(max)
		var order []int // model keys, most recent first
		val := map[int]string{}
		var hits, misses uint64
		touch := func(k int) {
			order = slices.Insert(slices.DeleteFunc(order, func(x int) bool { return x == k }), 0, k)
		}
		for op := 0; op < 4000; op++ {
			k := rng.Intn(12)
			switch r := rng.Intn(20); {
			case r == 0:
				c.Reset()
				order, val = nil, map[int]string{}
			case r < 10:
				v := fmt.Sprint(op)
				c.Put(key(1, 0, k), []byte(v))
				touch(k)
				val[k] = v
				for len(order) > max {
					delete(val, order[len(order)-1])
					order = order[:len(order)-1]
				}
			default:
				got, ok := c.Get(key(1, 0, k))
				want, wantOK := val[k]
				if ok != wantOK || string(got) != want {
					t.Fatalf("max %d op %d: Get(%d) = %q %v, model %q %v", max, op, k, got, ok, want, wantOK)
				}
				if ok {
					hits++
					touch(k)
				} else {
					misses++
				}
			}
			if c.Len() != len(order) {
				t.Fatalf("max %d op %d: Len %d, model %d", max, op, c.Len(), len(order))
			}
		}
		if h, m := c.Stats(); h != hits || m != misses {
			t.Fatalf("max %d: stats %d/%d, model %d/%d", max, h, m, hits, misses)
		}
		var fwd, back []int
		for el := c.root.next; el != &c.root; el = el.next {
			fwd = append(fwd, el.key.dst)
		}
		for el := c.root.prev; el != &c.root; el = el.prev {
			back = append([]int{el.key.dst}, back...)
		}
		if !slices.Equal(fwd, order) || !slices.Equal(back, order) {
			t.Fatalf("max %d: recency %v (backward %v), model %v", max, fwd, back, order)
		}
	}
}
