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
// header value, the Content-Type value, and the access line's attrs past
// slog's inline five. A hit parses no query.
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
	if allocs > 4 {
		t.Errorf("a traced hit allocates %.1f objects, want at most 4", allocs)
	}
}
