package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/obs"
	"riskroute/internal/topology"
)

// routeURL builds a /v1/route query with proper escaping (PoP names may
// contain spaces). Extra pairs are appended as k, v, k, v, ...
func routeURL(from, to string, extra ...string) string {
	v := url.Values{"network": {"Sprint"}, "from": {from}, "to": {to}}
	for i := 0; i+1 < len(extra); i += 2 {
		v.Set(extra[i], extra[i+1])
	}
	return "/v1/route?" + v.Encode()
}

// Shared reduced-scale test server. Warmup (hazard fit + census) dominates
// test time, so every test and benchmark in the package shares one Server;
// tests must therefore be generation-agnostic (record the generation before
// acting, assert relative to it) because advisory tests move it forward.
var (
	testOnce sync.Once
	testSrv  *Server
	testErr  error
)

func testServer(tb testing.TB) *Server {
	tb.Helper()
	testOnce.Do(func() {
		testSrv, testErr = New(Config{
			Networks:      []*topology.Network{datasets.NetworkByName("Sprint")},
			Blocks:        4000,
			EventScale:    0.03,
			Seed:          1,
			Metrics:       obs.NewRegistry(),
			RequestIDSeed: 7,
		})
	})
	if testErr != nil {
		tb.Fatalf("serve.New: %v", testErr)
	}
	return testSrv
}

// get issues a GET against the server's mux and decodes the JSON body.
func get(tb testing.TB, s *Server, path string, out any) int {
	tb.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			tb.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body.Bytes())
		}
	}
	return rec.Code
}

// sandyReplay loads the embedded Sandy advisory corpus.
func sandyReplay(tb testing.TB) *forecast.Replay {
	tb.Helper()
	replay, err := forecast.LoadReplay(datasets.HurricaneByName("Sandy"))
	if err != nil {
		tb.Fatalf("LoadReplay: %v", err)
	}
	return replay
}

func TestReadyAndHealth(t *testing.T) {
	s := testServer(t)
	if !s.Ready() {
		t.Fatal("server not ready after New")
	}
	var ready struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	if code := get(t, s, "/v1/readyz", &ready); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}
	if ready.Status != "ready" || ready.Generation != s.Generation() {
		t.Fatalf("readyz: %+v (generation %d)", ready, s.Generation())
	}
	if code := get(t, s, "/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
}

func TestRouteEndpoint(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	from, to := net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name
	path := routeURL(from, to)
	s.cache.Reset() // shared server: earlier tests may have warmed this pair

	var first routeResponse
	if code := get(t, s, path, &first); code != http.StatusOK {
		t.Fatalf("route: %d", code)
	}
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	if first.Generation != s.Generation() {
		t.Fatalf("generation %d, server at %d", first.Generation, s.Generation())
	}
	if len(first.Shortest.Path) < 2 || len(first.RiskRoute.Path) < 2 {
		t.Fatalf("degenerate paths: %+v", first)
	}
	if first.Shortest.Path[0] != from || first.Shortest.Path[len(first.Shortest.Path)-1] != to {
		t.Fatalf("shortest endpoints wrong: %v", first.Shortest.Path)
	}
	if first.RiskRoute.BitRiskMiles > first.Shortest.BitRiskMiles {
		t.Fatalf("risk route costs more risk than shortest: %v > %v",
			first.RiskRoute.BitRiskMiles, first.Shortest.BitRiskMiles)
	}

	var second routeResponse
	get(t, s, path, &second)
	if !second.Cached {
		t.Fatal("second identical query missed the cache")
	}
	second.Cached = first.Cached
	firstJSON, _ := json.Marshal(first)
	secondJSON, _ := json.Marshal(second)
	if string(firstJSON) != string(secondJSON) {
		t.Fatalf("cached response differs:\n%s\n%s", firstJSON, secondJSON)
	}

	// Custom λ bypasses the shared engine but must stay deterministic.
	custom := routeURL(from, to, "lambda_h", "1", "lambda_f", "0")
	var a, b routeResponse
	get(t, s, custom, &a)
	s.cache.Reset()
	get(t, s, custom, &b)
	if a.RiskRoute.BitRiskMiles != b.RiskRoute.BitRiskMiles {
		t.Fatalf("custom-λ route not deterministic: %v vs %v",
			a.RiskRoute.BitRiskMiles, b.RiskRoute.BitRiskMiles)
	}
}

func TestRouteErrors(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	a, b := net.PoPs[0].Name, net.PoPs[1].Name
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/route", http.StatusBadRequest}, // no network
		{strings.Replace(routeURL(a, b), "network=Sprint", "network=Nope", 1), http.StatusNotFound},
		{routeURL("Nowhere", b), http.StatusNotFound}, // unknown PoP
		{routeURL(a, b, "lambda_h", "-1"), http.StatusBadRequest},
		{routeURL(a, b, "lambda_f", "NaN"), http.StatusBadRequest},
		{routeURL(a, b, "lambda_h", "1e308"), http.StatusBadRequest}, // costs overflow
		{"/v1/ratio?network=Nope", http.StatusNotFound},
		{"/v1/ratio?network=Sprint&lambda_h=1e308", http.StatusBadRequest},
		{"/v1/risk?network=Nope", http.StatusNotFound},
		{"/v1/risk?network=Sprint&lambda_h=1e308", http.StatusBadRequest},
	} {
		if code := get(t, s, tc.path, nil); code != tc.want {
			t.Errorf("GET %s: got %d, want %d", tc.path, code, tc.want)
		}
	}
}

func TestPoPsAndRisk(t *testing.T) {
	s := testServer(t)
	var list struct {
		Networks []struct {
			Name string `json:"name"`
			PoPs int    `json:"pops"`
		} `json:"networks"`
	}
	if code := get(t, s, "/v1/pops", &list); code != http.StatusOK {
		t.Fatalf("pops: %d", code)
	}
	if len(list.Networks) != 1 || list.Networks[0].Name != "Sprint" {
		t.Fatalf("network list: %+v", list)
	}

	var detail struct {
		PoPs []struct {
			Name     string  `json:"name"`
			Fraction float64 `json:"fraction"`
		} `json:"pops"`
	}
	get(t, s, "/v1/pops?network=Sprint", &detail)
	if len(detail.PoPs) != list.Networks[0].PoPs {
		t.Fatalf("pop detail count %d != %d", len(detail.PoPs), list.Networks[0].PoPs)
	}
	var fracSum float64
	for _, p := range detail.PoPs {
		fracSum += p.Fraction
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		t.Fatalf("population fractions sum to %v, want 1", fracSum)
	}

	var riskResp struct {
		PoPs []struct {
			Hist     float64 `json:"hist"`
			Forecast float64 `json:"forecast"`
			NodeRisk float64 `json:"node_risk"`
		} `json:"pops"`
	}
	get(t, s, "/v1/risk?network=Sprint", &riskResp)
	if len(riskResp.PoPs) != len(detail.PoPs) {
		t.Fatalf("risk pop count %d != %d", len(riskResp.PoPs), len(detail.PoPs))
	}
	var histSum float64
	for _, p := range riskResp.PoPs {
		histSum += p.Hist
	}
	if histSum <= 0 {
		t.Fatal("historical risk surface is all zero")
	}
}

func TestAdvisorySwap(t *testing.T) {
	s := testServer(t)
	replay := sandyReplay(t)
	net := s.bases[0].net
	routePath := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name)

	before := s.Generation()
	var pre routeResponse
	get(t, s, routePath, &pre) // warm the cache at the current generation

	adv := replay.Advisories[len(replay.Advisories)/2]
	body := strings.NewReader(adv.Text())
	req := httptest.NewRequest(http.MethodPost, "/v1/advisory", body)
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST advisory: %d: %s", rec.Code, rec.Body.Bytes())
	}
	var info advisoryInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != before+1 {
		t.Fatalf("generation %d after swap, want %d", info.Generation, before+1)
	}
	if info.Storm != "SANDY" || info.Advisory != adv.Number {
		t.Fatalf("advisory info: %+v", info)
	}
	if got := s.Generation(); got != before+1 {
		t.Fatalf("server generation %d, want %d", got, before+1)
	}

	// The swap invalidated the cache (generation is part of every key) and
	// the new snapshot carries the storm annotation.
	var post routeResponse
	get(t, s, routePath, &post)
	if post.Cached {
		t.Fatal("route served from cache across a generation swap")
	}
	if post.Generation != before+1 || post.Storm != "SANDY" || post.Advisory != adv.Number {
		t.Fatalf("post-swap route: gen=%d storm=%q adv=%d", post.Generation, post.Storm, post.Advisory)
	}

	// GET /v1/advisory reflects the active advisory.
	var cur advisoryInfo
	if code := get(t, s, "/v1/advisory", &cur); code != http.StatusOK {
		t.Fatalf("GET advisory: %d", code)
	}
	if cur != info {
		t.Fatalf("GET advisory %+v != POST response %+v", cur, info)
	}

	// Garbage is rejected without touching the snapshot.
	rec = httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advisory",
		strings.NewReader("NOT A BULLETIN")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage advisory: %d, want 400", rec.Code)
	}
	if got := s.Generation(); got != before+1 {
		t.Fatalf("rejected advisory moved generation to %d", got)
	}

	// Wrong method.
	rec = httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/advisory", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE advisory: %d, want 405", rec.Code)
	}
}

func TestDrainFlipsReadyz(t *testing.T) {
	s := testServer(t)
	s.Drain()
	defer s.draining.Store(false) // shared server: restore for later tests
	if s.Ready() {
		t.Fatal("Ready() true while draining")
	}
	if code := get(t, s, "/v1/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	// Existing traffic still computes while draining.
	net := s.bases[0].net
	path := routeURL(net.PoPs[0].Name, net.PoPs[1].Name)
	if code := get(t, s, path, nil); code != http.StatusOK {
		t.Fatalf("route while draining: %d, want 200", code)
	}
}
