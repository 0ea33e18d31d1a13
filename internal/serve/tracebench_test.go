package serve

import (
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"riskroute/internal/obs"
	"riskroute/internal/runtel"
)

// BenchmarkTracedMiddlewareOnly isolates the middleware itself: a stub
// inner handler, so the measurement is pure tracing cost (ID, scope,
// status capture, SLO record, sampling check). Its NopLogger skips the
// access line.
func BenchmarkTracedMiddlewareOnly(b *testing.B) {
	benchTracedMiddleware(b, obs.NopLogger())
}

// BenchmarkTracedMiddlewareFlight is the same stub behind riskrouted's
// logger at -log off, the one runtel.Arm builds: every access line goes
// into the flight recorder.
func BenchmarkTracedMiddlewareFlight(b *testing.B) {
	run := runtel.Run{Name: "bench"}
	run.Arm()
	b.ReportAllocs()
	benchTracedMiddleware(b, run.Logger)
}

func benchTracedMiddleware(b *testing.B, lg *slog.Logger) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("serve.request_seconds.all", obs.LatencyBuckets())
	s := &Server{
		cfg:  Config{SlowRequest: 250 * time.Millisecond},
		ids:  obs.NewRequestIDs(1),
		slo:  obs.NewSLO(obs.SLOConfig{Metrics: reg, LatencyHistogram: hist}),
		reqs: obs.NewReqRing(64),
		lg:   lg,
		tel:  serveObs{reqSeconds: hist},
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	h := s.traced(inner)
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	rec := httptest.NewRecorder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(rec, req)
	}
}
