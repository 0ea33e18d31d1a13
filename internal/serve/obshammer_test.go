package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestObservabilityHammer drives the traced surface from every direction at
// once — route traffic, advisory swaps, and observability pollers hitting
// /metrics, /v1/slo, /v1/generations, and /debug/requests — so the race
// detector sweeps the tracing middleware, SLO ring, request ring, and swap
// timeline under real contention. Assertions are deliberately coarse
// (status codes, header presence): TestRouteSwapHammer owns value-level
// consistency; this test owns the observability plane's interleavings.
func TestObservabilityHammer(t *testing.T) {
	s := testServer(t)
	replay := sandyReplay(t)
	net := s.bases[0].net
	h := s.Handler()

	do := func(method, path string, body string) int {
		var req *http.Request
		if body != "" {
			req = httptest.NewRequest(method, path, strings.NewReader(body))
		} else {
			req = httptest.NewRequest(method, path, nil)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Header().Get("X-Request-Id") == "" {
			t.Errorf("%s %s: no X-Request-Id", method, path)
		}
		return rec.Code
	}

	const routeWorkers, routesEach = 4, 40
	const pollWorkers, pollsEach = 3, 30
	const swaps = 3

	var wg sync.WaitGroup
	for w := 0; w < routeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < routesEach; i++ {
				from := net.PoPs[(w+i)%len(net.PoPs)].Name
				to := net.PoPs[(w+i+1)%len(net.PoPs)].Name
				if from == to {
					continue
				}
				code := do(http.MethodGet, routeURL(from, to), "")
				if code != http.StatusOK && code != http.StatusUnprocessableEntity &&
					code != http.StatusTooManyRequests {
					t.Errorf("route %s->%s: unexpected status %d", from, to, code)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			adv := replay.Advisories[(i*5)%len(replay.Advisories)]
			if code := do(http.MethodPost, "/v1/advisory", adv.Text()); code != http.StatusOK {
				t.Errorf("swap %d: status %d", i, code)
			}
		}
	}()
	endpoints := []string{"/metrics", "/v1/slo", "/v1/generations", "/debug/requests", "/v1/readyz"}
	for w := 0; w < pollWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < pollsEach; i++ {
				ep := endpoints[(w+i)%len(endpoints)]
				if code := do(http.MethodGet, ep, ""); code != http.StatusOK {
					t.Errorf("poll %s: status %d", ep, code)
				}
			}
		}(w)
	}
	wg.Wait()

	// The SLO engine saw everything the middleware traced.
	snap := s.slo.Snapshot()
	if len(snap.Windows) == 0 || snap.Windows[len(snap.Windows)-1].Total == 0 {
		t.Fatalf("SLO engine recorded nothing: %+v", snap)
	}
	// The timeline holds every generation the hammer published.
	if evs := s.timeline.Records(); len(evs) < swaps {
		t.Fatalf("timeline has %d events, want >= %d", len(evs), swaps)
	}
	// /metrics still parses after the storm.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "serve_generation") {
		t.Fatal("post-hammer /metrics missing serve_generation")
	}
}
