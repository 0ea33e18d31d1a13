package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"riskroute/internal/obs"
)

// admissionServer builds a bare Server with only the admission machinery
// wired (no world, no warmup): admit touches nothing but cfg, sem, and the
// nil-safe metric handles, so the policy is testable in microseconds.
func admissionServer(maxInFlight int, queueTimeout time.Duration) *Server {
	return &Server{
		cfg: Config{
			MaxInFlight:    maxInFlight,
			QueueTimeout:   queueTimeout,
			RequestTimeout: time.Second,
		},
		sem: make(chan struct{}, maxInFlight),
	}
}

func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	s := admissionServer(1, 20*time.Millisecond)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release // returns immediately once closed
		w.WriteHeader(http.StatusOK)
	})

	// First request occupies the only slot.
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/v1/route", nil))
		firstDone <- rec
	}()
	<-entered

	// Second request queues, times out, and is shed with 429 + Retry-After.
	rec := httptest.NewRecorder()
	start := time.Now()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/route", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Fatalf("rejected after %v, before the queue timeout", waited)
	}

	close(release)
	if rec := <-firstDone; rec.Code != http.StatusOK {
		t.Fatalf("slot-holding request: %d", rec.Code)
	}

	// Slot free again: the next request is admitted immediately.
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/route", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release request: %d, want 200", rec.Code)
	}
}

func TestAdmissionClientGivesUpWhileQueued(t *testing.T) {
	s := admissionServer(1, time.Minute) // queue timeout far away
	release := make(chan struct{})
	entered := make(chan struct{})
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/v1/route", nil))
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/route", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	h(rec, req)
	if rec.Code != statusClientClosed {
		t.Fatalf("cancelled-while-queued request: %d, want %d", rec.Code, statusClientClosed)
	}
	close(release) // let the slot holder finish
	wg.Wait()
}

// deadlineRoute mounts a stub compute handler as routes() mounts /v1/route,
// behind instrument and admit; like the real handlers it calls
// deadlineExceeded first. The returned func reads serve.errors_total.
func deadlineRoute(s *Server) (http.HandlerFunc, func() int64) {
	reg := obs.NewRegistry()
	s.tel = newServeObs(reg)
	s.cfg.Metrics = reg
	h := s.instrument("route", s.admit(func(w http.ResponseWriter, r *http.Request) {
		if s.deadlineExceeded(w, r) {
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	return h, func() int64 { return reg.Snapshot().Counters["serve.errors_total"] }
}

// TestAdmissionAppliesRequestDeadline pins that RequestTimeout runs from
// arrival: a request that spends its deadline queued for the only slot gets
// 503 once admitted, before any engine work.
func TestAdmissionAppliesRequestDeadline(t *testing.T) {
	s := admissionServer(1, 200*time.Millisecond)
	s.cfg.RequestTimeout = 30 * time.Millisecond
	h, _ := deadlineRoute(s)

	s.sem <- struct{}{} // the only slot, held for 60ms
	go func() {
		time.Sleep(60 * time.Millisecond)
		<-s.sem
	}()
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/route", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request admitted after 60ms in the queue: %d, want 503 (30ms deadline from arrival)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "request deadline exceeded") {
		t.Fatalf("deadline body: %s", rec.Body.Bytes())
	}
}

// TestAdmittedClientHangUpIs499 pins that a client that hangs up after
// admission gets 499, not a 503 deadline: its own cancellation is not a
// serving fault, so serve.errors_total stays put.
func TestAdmittedClientHangUpIs499(t *testing.T) {
	s := admissionServer(1, 20*time.Millisecond)
	h, errs := deadlineRoute(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/route", nil).WithContext(ctx))
	if rec.Code != statusClientClosed {
		t.Fatalf("cancelled request: %d, want %d", rec.Code, statusClientClosed)
	}
	if n := errs(); n != 0 {
		t.Fatalf("client hang-up counted as serving error (errors_total=%d)", n)
	}
	if len(s.sem) != 0 {
		t.Fatalf("semaphore occupancy %d after the request, want 0", len(s.sem))
	}
}

// TestRetryAfterFormatting pins the exact Retry-After value for every shape
// of queue timeout: RFC 9110 delay-seconds, rounded up, floored at 1.
func TestRetryAfterFormatting(t *testing.T) {
	cases := []struct {
		timeout time.Duration
		want    string
	}{
		{0, "1"},
		{time.Millisecond, "1"},
		{100 * time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{time.Second + time.Millisecond, "2"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{2500 * time.Millisecond, "3"},
		{time.Minute, "60"},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.timeout); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", tc.timeout, got, tc.want)
		}
	}

	// And end to end: the header a shed request actually receives.
	s := admissionServer(1, 30*time.Millisecond)
	s.sem <- struct{}{} // saturate
	h := s.admit(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/route", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q (30ms queue timeout rounds up to 1s)", got, "1")
	}
}

// TestClientStatusesExcludedFromErrorCounter pins that 429 (load shed) and
// 499 (client abandoned) never count as serving errors, while genuine 4xx/
// 5xx still do — the distinction that keeps overload from paging as an
// outage.
func TestClientStatusesExcludedFromErrorCounter(t *testing.T) {
	reg := obs.NewRegistry()
	errsBefore := func() int64 { return reg.Snapshot().Counters["serve.errors_total"] }

	s := admissionServer(1, 5*time.Millisecond)
	s.tel = newServeObs(reg)
	s.cfg.Metrics = reg

	// 429 via real queue overflow under instrument.
	s.sem <- struct{}{}
	h := s.instrument("route", s.admit(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/route", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d", rec.Code)
	}
	if n := errsBefore(); n != 0 {
		t.Fatalf("429 counted as serving error (errors_total=%d)", n)
	}
	if reg.Snapshot().Counters["serve.rejected_total"] != 1 {
		t.Fatal("429 not counted in rejected_total")
	}

	// 499 via a client that gives up while queued (slot still held).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/route", nil).WithContext(ctx))
	if rec.Code != statusClientClosed {
		t.Fatalf("want 499, got %d", rec.Code)
	}
	if n := errsBefore(); n != 0 {
		t.Fatalf("499 counted as serving error (errors_total=%d)", n)
	}

	// A genuine server-side failure still counts.
	<-s.sem
	boom := s.instrument("route", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, http.StatusInternalServerError, "boom")
	})
	boom(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/route", nil))
	if n := errsBefore(); n != 1 {
		t.Fatalf("real 500 not counted (errors_total=%d)", n)
	}
}

// TestClientAbandonWhileQueuedLeavesNoResidue pins the 499 path's
// bookkeeping: an abandoned queued request must not leak a semaphore slot
// or perturb the in-flight gauge.
func TestClientAbandonWhileQueuedLeavesNoResidue(t *testing.T) {
	s := admissionServer(1, time.Minute)
	s.sem <- struct{}{} // slot held by someone else for the whole test
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		t.Error("abandoned request reached the handler")
	})

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/v1/route", nil).WithContext(ctx))
		if rec.Code != statusClientClosed {
			t.Fatalf("attempt %d: %d, want %d", i, rec.Code, statusClientClosed)
		}
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight count %d after abandoned requests", got)
	}
	if len(s.sem) != 1 {
		t.Fatalf("semaphore occupancy %d, want 1 (only the original holder)", len(s.sem))
	}
}

// TestOverloadEndToEnd drives the real route handler into saturation:
// with one slot and a long-running occupant, concurrent real requests must
// split into 200s and 429s with nothing hung or dropped.
func TestOverloadEndToEnd(t *testing.T) {
	s := testServer(t)
	// Temporarily shrink the semaphore: swap in a 1-slot channel.
	oldSem, oldCfg := s.sem, s.cfg
	s.sem = make(chan struct{}, 1)
	s.cfg.MaxInFlight = 1
	s.cfg.QueueTimeout = 5 * time.Millisecond
	mux := s.routes() // rebuild: admit captured the old config's Retry-After
	defer func() { s.sem, s.cfg = oldSem, oldCfg }()

	s.sem <- struct{}{} // occupy the only slot
	net := s.bases[0].net
	path := routeURL(net.PoPs[0].Name, net.PoPs[1].Name)

	const n = 8
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			codes <- rec.Code
		}()
	}
	wg.Wait()
	close(codes)
	rejected := 0
	for code := range codes {
		if code != http.StatusTooManyRequests {
			t.Fatalf("request under full saturation: %d, want 429", code)
		}
		rejected++
	}
	if rejected != n {
		t.Fatalf("%d rejections, want %d", rejected, n)
	}

	<-s.sem // release; requests flow again
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-saturation request: %d, want 200", rec.Code)
	}
}
