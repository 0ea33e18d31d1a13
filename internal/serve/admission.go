package serve

import (
	"net/http"
	"strconv"
	"time"
)

// admit wraps a compute handler with the admission-control policy:
//
//   - At most cfg.MaxInFlight requests execute concurrently.
//   - A request that cannot get a slot immediately waits up to
//     cfg.QueueTimeout, then is rejected with 429 Too Many Requests and a
//     Retry-After hint — the server sheds overload instead of building an
//     unbounded queue whose every entry times out anyway.
//   - A request has cfg.RequestTimeout from its arrival, queue wait
//     included; handlers check it with deadlineExceeded before starting
//     expensive work.
func (s *Server) admit(next http.HandlerFunc) http.HandlerFunc {
	retryAfter := retryAfterSeconds(s.cfg.QueueTimeout)
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			// Fast path: a slot was free.
		default:
			waitStart := time.Now()
			timer := time.NewTimer(s.cfg.QueueTimeout)
			select {
			case s.sem <- struct{}{}:
				timer.Stop()
				if rs := scopeOf(w); rs != nil {
					rs.QueueWait = time.Since(waitStart)
				}
			case <-timer.C:
				s.tel.rejected.Inc()
				w.Header().Set("Retry-After", retryAfter)
				s.writeError(w, http.StatusTooManyRequests, "server at capacity; retry later")
				return
			case <-r.Context().Done():
				timer.Stop()
				s.writeError(w, statusClientClosed, "client gave up while queued")
				return
			}
		}
		s.inflight.Add(1)
		s.tel.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			s.tel.inflight.Add(-1)
			<-s.sem
		}()
		next(w, r)
	}
}

// statusClientClosed is nginx's conventional "client closed request" code;
// the stdlib has no name for it.
const statusClientClosed = 499

// retryAfterSeconds renders a queue timeout as the Retry-After header value:
// RFC 9110 delay-seconds (an integer, no units), rounded UP so the hint
// never invites a retry before the queue could plausibly have drained, and
// never less than 1 — "Retry-After: 0" reads as "retry immediately", which
// is exactly the stampede the header exists to prevent.
func retryAfterSeconds(queueTimeout time.Duration) string {
	secs := int((queueTimeout + 999*time.Millisecond) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// deadlineExceeded reports whether a request should stop before engine
// work, writing its response when it should: 499 when the client's own
// context is done, 503 once cfg.RequestTimeout has passed since the arrival
// stamped on w's status recorder, so queue wait counts. Handlers call this
// before starting engine work so a request nobody will read, or one that
// burned its deadline in the admission queue, fails fast instead of
// computing a result.
func (s *Server) deadlineExceeded(w http.ResponseWriter, r *http.Request) bool {
	if r.Context().Err() != nil {
		s.writeError(w, statusClientClosed, "client gave up before engine work")
		return true
	}
	if sw, ok := w.(*statusWriter); ok && time.Since(sw.start) > s.cfg.RequestTimeout {
		s.writeError(w, http.StatusServiceUnavailable, "request deadline exceeded")
		return true
	}
	return false
}
