//go:build !race

package serve

import (
	"net/http"
	"testing"
)

// The race detector changes allocation counts (sync.Pool drops pooled
// values at random under it), so these pins build without it.

// TestTracedHitAllocs pins what a traced route hit allocates, as
// BenchmarkServeRouteCachedTraced serves it: the request ID, its response
// header value, and the access line's attrs past slog's inline five. A hit
// parses no query, and its Content-Type is a shared value.
func TestTracedHitAllocs(t *testing.T) {
	s, _ := flightServer(t)
	h, req := s.Handler(), tracedHitRequest(t, s)
	w := newHitWriter()
	allocs := testing.AllocsPerRun(1000, func() {
		w.reset()
		h.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if allocs > 3 {
		t.Errorf("a traced hit allocates %.1f objects, want at most 3", allocs)
	}
}

// TestLRUPutAllocs pins that storing a new key allocates its entry alone:
// the recency links live in the entry.
func TestLRUPutAllocs(t *testing.T) {
	c := newLRU(64)
	k := 0
	for ; k < 64; k++ {
		c.Put(key(1, 0, k), nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Put(key(1, 0, k), nil)
		k++
	})
	if allocs != 1 {
		t.Errorf("a Put of a new key allocates %.1f objects, want 1", allocs)
	}
}
