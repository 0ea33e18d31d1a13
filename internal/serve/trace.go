package serve

// Request-scoped tracing middleware. Every request entering the daemon gets
// an identifier — honored from an inbound X-Request-Id header so IDs survive
// proxy hops, when it is 1–128 bytes of visible ASCII, otherwise drawn from
// the server's generator — carried through admission, cache, and engine
// stages as a *obs.ReqScope on the status recorder (scopeOf), and echoed
// back as the X-Request-Id response header on every status. On the way out
// the middleware emits one structured access-log line, feeds the SLO engine
// (which shares the serve.request_seconds.all histogram, so latency is
// observed once), and tail-samples slow or errored requests into the
// bounded ring behind /debug/requests.
//
// The per-request state — status recorder and the scope it points at —
// lives in one pooled struct, and the request passes through unchanged, so
// steady-state cost is the ID string and the response header. Pooling is
// sound because every handler in this package is synchronous: nothing
// retains the ResponseWriter past ServeHTTP's return. Config.DisableTracing
// removes the middleware entirely.

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"riskroute/internal/obs"
)

// traceState is the pooled per-request tracing state: the status recorder
// and the scope it points at.
type traceState struct {
	statusWriter
	rs obs.ReqScope
}

var tracePool = sync.Pool{New: func() any { return new(traceState) }}

// traced wraps the daemon's whole HTTP surface with request tracing.
func (s *Server) traced(next http.Handler) http.Handler {
	// One Enabled probe at construction: the logger's level does not change
	// over the server's life, and the check is off the per-request path.
	logAccess := s.lg.Enabled(context.Background(), slog.LevelInfo)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Direct map access skips textproto canonicalization; net/http has
		// already canonicalized inbound keys, and ours is canonical.
		var id string
		if vs := r.Header["X-Request-Id"]; len(vs) > 0 && validRequestID(vs[0]) {
			id = vs[0]
		} else {
			id = s.ids.Next()
		}
		ts := tracePool.Get().(*traceState)
		ts.rs = obs.ReqScope{ID: id}
		ts.statusWriter = statusWriter{ResponseWriter: w, status: http.StatusOK, start: start, scope: &ts.rs}
		w.Header()["X-Request-Id"] = []string{id}
		next.ServeHTTP(&ts.statusWriter, r)

		// instrument stamped its end time on the shared statusWriter; reuse
		// it (the instant between its stamp and here is a handful of counter
		// increments) so a traced request costs no extra clock reads.
		end := ts.end
		if end.IsZero() {
			end = time.Now()
		}
		dur := end.Sub(start)
		status := ts.status
		s.slo.RecordAt(end, dur, status >= 500)
		if logAccess {
			s.lg.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Uint64("generation", ts.rs.Generation),
				slog.Bool("cache_hit", ts.rs.CacheHit),
				slog.Duration("queue_wait", ts.rs.QueueWait),
				slog.Duration("duration", dur))
		}
		if status >= 400 || dur >= s.cfg.SlowRequest {
			s.reqs.Add(obs.ReqRecord{
				ID: id, Time: start, Method: r.Method, Path: r.URL.Path,
				Status: status, Generation: ts.rs.Generation,
				CacheHit: ts.rs.CacheHit, QueueWait: ts.rs.QueueWait, Duration: dur,
			})
		}
		ts.ResponseWriter = nil // drop the response reference before pooling
		tracePool.Put(ts)
	})
}

// maxRequestID is the longest inbound X-Request-Id the daemon honors. The
// ID is echoed, logged and sampled, so an unbounded one would let a client
// park up to net/http's header limit in every flight-recorder slot.
const maxRequestID = 128

// validRequestID reports whether an inbound ID is 1–maxRequestID bytes of
// visible ASCII (0x21–0x7E): no spaces or control bytes to forge log fields
// or lines.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > maxRequestID {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return false
		}
	}
	return true
}

// scopeGeneration records the snapshot generation a handler answered from
// into the request scope (no-op outside a traced request).
func scopeGeneration(w http.ResponseWriter, gen uint64) {
	if rs := scopeOf(w); rs != nil {
		rs.Generation = gen
	}
}

// scopeCacheHit records the result-cache outcome into the request scope.
func scopeCacheHit(w http.ResponseWriter, hit bool) {
	if rs := scopeOf(w); rs != nil {
		rs.CacheHit = hit
	}
}
