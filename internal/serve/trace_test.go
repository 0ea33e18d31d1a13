package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"riskroute/internal/obs"
)

// getTraced issues a request through the full traced handler (middleware
// included) and returns the recorder.
func getTraced(tb testing.TB, s *Server, method, path string, body *strings.Reader) *httptest.ResponseRecorder {
	tb.Helper()
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, path, body)
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestRequestIDOnEveryResponse pins the acceptance criterion: every
// response — success, client error, unknown route, wrong method — carries
// an X-Request-Id header.
func TestRequestIDOnEveryResponse(t *testing.T) {
	s := testServer(t)
	for _, tc := range []struct {
		method string
		path   string
		want   int
	}{
		{http.MethodGet, "/v1/healthz", http.StatusOK},
		{http.MethodGet, "/v1/route", http.StatusBadRequest},
		{http.MethodGet, "/v1/route?network=Nope&from=a&to=b", http.StatusNotFound},
		{http.MethodGet, "/no/such/path", http.StatusNotFound},
		{http.MethodDelete, "/v1/advisory", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/slo", http.StatusOK},
		{http.MethodGet, "/v1/generations", http.StatusOK},
		{http.MethodGet, "/metrics", http.StatusOK},
	} {
		rec := getTraced(t, s, tc.method, tc.path, nil)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
		id := rec.Header().Get("X-Request-Id")
		if len(id) != 16 {
			t.Errorf("%s %s: X-Request-Id %q, want 16 hex chars", tc.method, tc.path, id)
		}
	}
}

// TestInboundRequestIDHonored pins proxy-hop behavior: an inbound
// X-Request-Id of 1–128 visible ASCII bytes is kept, not replaced; any
// other value gets a fresh 16-hex ID, so a client cannot park an arbitrary
// header in the response, the log ring, or /debug/requests.
func TestInboundRequestIDHonored(t *testing.T) {
	s := testServer(t)
	fresh := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, tc := range []struct {
		name, id string
		kept     bool
	}{
		{"plain", "upstream-trace-42", true},
		{"128 bytes", strings.Repeat("a", 127) + "~", true},
		{"129 bytes", strings.Repeat("a", 129), false},
		{"space", "upstream trace", false},
		{"control byte", "upstream\x01trace", false},
		{"DEL", "upstream\x7ftrace", false},
		{"non-ASCII", "upstream-tracé", false},
	} {
		req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
		req.Header["X-Request-Id"] = []string{tc.id}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		got := rec.Header().Get("X-Request-Id")
		if tc.kept && got != tc.id {
			t.Errorf("%s: inbound id replaced: %q", tc.name, got)
		}
		if !tc.kept && !fresh.MatchString(got) {
			t.Errorf("%s: X-Request-Id %q, want a fresh 16-hex ID", tc.name, got)
		}
	}
}

// TestDebugRequestsSamplesErrors pins tail sampling: an errored request
// shows up on /debug/requests with its ID, a fast 200 does not.
func TestDebugRequestsSamplesErrors(t *testing.T) {
	s := testServer(t)
	const badID = "feedfacefeedface"
	req := httptest.NewRequest(http.MethodGet, "/v1/route?network=Nope&from=a&to=b", nil)
	req.Header.Set("X-Request-Id", badID)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("setup request: %d", rec.Code)
	}

	const okID = "0ddba11c0ffee000"
	req = httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	req.Header.Set("X-Request-Id", okID)
	s.Handler().ServeHTTP(httptest.NewRecorder(), req)

	page := getTraced(t, s, http.MethodGet, "/debug/requests", nil)
	if page.Code != http.StatusOK {
		t.Fatalf("/debug/requests: %d", page.Code)
	}
	body := page.Body.String()
	if !strings.Contains(body, "id="+badID) {
		t.Fatalf("errored request not sampled:\n%s", body)
	}
	if strings.Contains(body, "id="+okID) {
		t.Fatalf("fast healthy request was sampled:\n%s", body)
	}
}

// TestMetricsEndpoint pins /metrics on the serve mux: exposition content
// type, parseable output, and the serving layer's own families present.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	// Generate at least one route request so per-endpoint families exist.
	net := s.bases[0].net
	getTraced(t, s, http.MethodGet, routeURL(net.PoPs[0].Name, net.PoPs[1].Name), nil)

	rec := getTraced(t, s, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type %q, want %q", ct, obs.PromContentType)
	}
	fams, err := obs.ParseProm(rec.Body)
	if err != nil {
		t.Fatalf("exposition output does not parse: %v", err)
	}
	for _, want := range []string{
		"serve_generation",
		"serve_requests_total_route",
		"serve_request_seconds_all",
		"slo_error_burn_rate_5m",
		"runtime_goroutines",
	} {
		if fams[want] == nil {
			t.Errorf("family %s missing from /metrics", want)
		}
	}
	if f := fams["serve_request_seconds_all"]; f != nil && f.Type != "histogram" {
		t.Errorf("serve_request_seconds_all type %q, want histogram", f.Type)
	}
}

// TestSLOEndpoint pins /v1/slo: the burn-rate document with both default
// windows, fed by the tracing middleware.
func TestSLOEndpoint(t *testing.T) {
	s := testServer(t)
	getTraced(t, s, http.MethodGet, "/v1/healthz", nil) // at least one event
	rec := getTraced(t, s, http.MethodGet, "/v1/slo", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/slo: %d", rec.Code)
	}
	var snap obs.SLOSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if snap.LatencyObjectiveSeconds != 0.1 || snap.LatencyTarget != 0.99 || snap.ErrorTarget != 0.999 {
		t.Fatalf("objectives not defaulted: %+v", snap)
	}
	if len(snap.Windows) != 2 || snap.Windows[0].Window != "5m" || snap.Windows[1].Window != "1h" {
		t.Fatalf("windows: %+v", snap.Windows)
	}
	if snap.Windows[1].Total == 0 {
		t.Fatal("1h window empty after traced requests")
	}
}

// TestTracedMiddlewareIsolated exercises the middleware against a stub
// handler (no warmup needed): scope propagation, ID generation, and
// tail-sampling of slow requests.
func TestTracedMiddlewareIsolated(t *testing.T) {
	s := &Server{
		cfg:  Config{SlowRequest: 1}, // 1ns: every request is "slow", so every request samples
		ids:  obs.NewRequestIDs(99),
		slo:  obs.NewSLO(obs.SLOConfig{}),
		reqs: obs.NewReqRing(8),
		lg:   obs.NopLogger(),
	}

	var seenScope *obs.ReqScope
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		scopeGeneration(w, 17)
		scopeCacheHit(w, true)
		if rs := scopeOf(w); rs != nil {
			seen := *rs
			seenScope = &seen
		}
		w.WriteHeader(http.StatusTeapot)
	})
	rec := httptest.NewRecorder()
	s.traced(inner).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))

	if seenScope == nil {
		t.Fatal("handler saw no request scope")
	}
	id := rec.Header().Get("X-Request-Id")
	if len(id) != 16 || seenScope.ID != id {
		t.Fatalf("header id %q vs scope id %q", id, seenScope.ID)
	}
	if seenScope.Generation != 17 || !seenScope.CacheHit {
		t.Fatalf("scope mutations lost: %+v", seenScope)
	}
	recs := s.reqs.Records()
	if len(recs) != 1 {
		t.Fatalf("sampled %d records, want 1", len(recs))
	}
	got := recs[0]
	if got.ID != id || got.Status != http.StatusTeapot || got.Generation != 17 || !got.CacheHit {
		t.Fatalf("sampled record: %+v", got)
	}
	if w := s.slo.Snapshot().Windows[0]; w.Total != 1 {
		t.Fatalf("SLO did not record the request: %+v", w)
	}
}

// TestRequestStateRidesStatusRecorder pins the one per-request path: a
// handler behind traced, instrument and admit receives the very request the
// middleware was given, its scope is the one on the status recorder, and
// what admission and a real /v1/route stamp there reaches /debug/requests.
func TestRequestStateRidesStatusRecorder(t *testing.T) {
	s := &Server{
		cfg:  Config{MaxInFlight: 1, QueueTimeout: time.Second, RequestTimeout: time.Second, SlowRequest: 1},
		sem:  make(chan struct{}, 1),
		ids:  obs.NewRequestIDs(99),
		slo:  obs.NewSLO(obs.SLOConfig{}),
		reqs: obs.NewReqRing(8),
		lg:   obs.NopLogger(),
	}
	var seenReq *http.Request
	var seenID string
	probe := func(w http.ResponseWriter, r *http.Request) {
		seenReq = r
		if rs := scopeOf(w); rs != nil {
			seenID = rs.ID
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	rec := httptest.NewRecorder()
	s.traced(s.instrument("x", s.admit(probe))).ServeHTTP(rec, req)
	if seenReq != req {
		t.Fatal("probe received a clone of the request, not the request itself")
	}
	if id := rec.Header().Get("X-Request-Id"); seenID == "" || seenID != id {
		t.Fatalf("scope id %q, X-Request-Id %q", seenID, id)
	}

	// A real route through a one-slot admission queue, on the shared server.
	srv := testServer(t)
	oldSem, oldCfg := srv.sem, srv.cfg
	defer func() { srv.sem, srv.cfg = oldSem, oldCfg }()
	srv.sem = make(chan struct{}, 1)
	srv.cfg.MaxInFlight = 1
	srv.cfg.QueueTimeout = time.Minute
	srv.cfg.SlowRequest = time.Nanosecond // sample every request
	h := srv.traced(srv.routes())
	net := srv.bases[0].net
	path := routeURL(net.PoPs[0].Name, net.PoPs[2].Name)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil)) // warm the cache
	if rec.Code != http.StatusOK {
		t.Fatalf("warming route: %d", rec.Code)
	}
	const id = "queued-cache-hit"
	srv.sem <- struct{}{} // hold the only slot until the request queues
	entered := make(chan struct{})
	go func() {
		<-entered
		time.Sleep(30 * time.Millisecond)
		<-srv.sem
	}()
	req = httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("X-Request-Id", id)
	rec = httptest.NewRecorder()
	close(entered)
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("queued route: %d", rec.Code)
	}
	var got *obs.ReqRecord
	for _, r := range srv.reqs.Records() {
		if r.ID == id {
			r := r
			got = &r
		}
	}
	if got == nil {
		t.Fatal("queued route not sampled into /debug/requests")
	}
	if got.QueueWait < 20*time.Millisecond || got.Generation != srv.Generation() || !got.CacheHit {
		t.Fatalf("sampled record %+v: want queue wait >= 20ms, generation %d, cache hit", *got, srv.Generation())
	}
	page := httptest.NewRecorder()
	h.ServeHTTP(page, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	if want := fmt.Sprintf("id=%s gen=%d cache=hit queue=", id, srv.Generation()); !strings.Contains(page.Body.String(), want) {
		t.Fatalf("/debug/requests lacks %q:\n%s", want, page.Body.String())
	}
}

// TestAccessLineStampedAtEnd: a traced hit leaves one flight-recorder line
// with the access line's fields, order and text, stamped at the end that
// instrument left on the status recorder.
func TestAccessLineStampedAtEnd(t *testing.T) {
	s, flight := flightServer(t)
	req := tracedHitRequest(t, s)
	s.cfg.SlowRequest = time.Nanosecond // sample the hit too
	var end time.Time
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mux.ServeHTTP(w, r)
		end = w.(*statusWriter).end
	})
	before := len(flight.Records())
	w := newHitWriter()
	s.traced(inner).ServeHTTP(w, req)
	lines := flight.Records()
	if len(lines) != before+1 {
		t.Fatalf("a traced hit left %d flight-recorder lines, want 1: %q", len(lines)-before, lines[before:])
	}
	samples := s.reqs.Records()
	got := samples[len(samples)-1]
	if got.ID != w.header.Get("X-Request-Id") || !got.CacheHit {
		t.Fatalf("sampled %+v, want the hit %s", got, w.header.Get("X-Request-Id"))
	}
	want := fmt.Sprintf("%s INFO request id=%s method=GET path=/v1/route status=200 generation=%d cache_hit=true queue_wait=0s duration=%v",
		end.UTC().Format(time.RFC3339Nano), got.ID, s.Generation(), got.Duration)
	if line := lines[before]; line != want {
		t.Errorf("access line\n%s\nwant\n%s", line, want)
	}

	// The record itself carries end and no PC.
	capture := &recordCapture{}
	s.lg = slog.New(capture)
	s.traced(inner).ServeHTTP(newHitWriter(), req)
	if len(capture.recs) != 1 || capture.recs[0].PC != 0 || !capture.recs[0].Time.Equal(end) {
		t.Errorf("access records %+v, want one at %v with PC 0", capture.recs, end)
	}
}

// recordCapture is a slog.Handler keeping every record it is handed.
type recordCapture struct{ recs []slog.Record }

func (c *recordCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *recordCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *recordCapture) WithGroup(string) slog.Handler            { return c }
func (c *recordCapture) Handle(_ context.Context, r slog.Record) error {
	c.recs = append(c.recs, r.Clone())
	return nil
}
