package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkServeRouteCold measures the full serving hot path on a cache
// miss: mux dispatch, admission, snapshot load, a pair query on the shared
// snapshot engine, and JSON encoding. The cache is cleared every iteration.
func BenchmarkServeRouteCold(b *testing.B) {
	s := testServer(b)
	net := s.bases[0].net
	path := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Reset()
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkRouteWithTracingOff measures a full route computation (cache
// miss: mux dispatch, admission, engine pair query, JSON encoding) with the
// tracing middleware bypassed — requests go straight to the mux.
// BenchmarkRouteWithTracingOn below runs the identical workload through the
// traced handler; both are tracked per-benchmark by the bench-compare gate.
// The overhead *ratio* between them is gated by
// BenchmarkRouteTracingPaired instead of by dividing these two results: the
// delta being measured (~0.5µs) is an order of magnitude below the
// run-to-run swing of separate benchmark invocations on a shared box, so
// only an estimator that interleaves both variants inside one timer window
// can resolve it (see DESIGN.md §11).
func BenchmarkRouteWithTracingOff(b *testing.B) {
	s := testServer(b)
	net := s.bases[0].net
	path := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Reset()
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkRouteWithTracingOn measures the identical full route computation
// through the traced handler.
func BenchmarkRouteWithTracingOn(b *testing.B) {
	s := testServer(b)
	net := s.bases[0].net
	path := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Reset()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkRouteTracingPaired is the tracing-overhead gate. It drives the
// untraced mux and the traced handler in alternating 32-request batches
// inside one timer window, so scheduler preemption, GC cycles, and
// neighboring-tenant noise land on both variants equally, then reports the
// per-request delta and the overhead ratio directly as benchmark metrics.
// benchjson picks the overhead-pct metric up (Makefile/CI pass
// -overhead-paired RouteTracingPaired) and records it as
// telemetry_overhead.overhead_pct in BENCH_PR7.json. Measured this way the
// all-in cost of tracing a full-compute route — ID, response header, SLO
// recording, and the GC amortization of the 32 B those allocate — is
// stable run to run, while the ratio of separately-invoked Off/On minima
// swings between -1% and +8% on the same machine.
func BenchmarkRouteTracingPaired(b *testing.B) {
	s := testServer(b)
	net := s.bases[0].net
	path := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	h := s.Handler()
	const batch = 32
	var offNs, onNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			s.cache.Reset()
			rec := httptest.NewRecorder()
			s.mux.ServeHTTP(rec, req)
		}
		t1 := time.Now()
		for j := 0; j < batch; j++ {
			s.cache.Reset()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
		}
		t2 := time.Now()
		offNs += t1.Sub(t0).Nanoseconds()
		onNs += t2.Sub(t1).Nanoseconds()
	}
	b.StopTimer()
	if offNs > 0 {
		requests := float64(int64(b.N) * batch)
		b.ReportMetric(float64(onNs-offNs)/float64(offNs)*100, "overhead-pct")
		b.ReportMetric(float64(onNs-offNs)/requests, "delta-ns/req")
	}
}

// BenchmarkServeRouteCached measures the same path on a warm cache: the
// engine query is replaced by an LRU lookup, leaving dispatch, admission,
// and encoding.
func BenchmarkServeRouteCached(b *testing.B) {
	s := testServer(b)
	net := s.bases[0].net
	path := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req) // warm the entry
	if rec.Code != http.StatusOK {
		b.Fatalf("warm request: %d", rec.Code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
