package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/obs"
	"riskroute/internal/resilience"
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

// TestSmallCensusIsConfigError: a census block budget below the
// generator's floor is an error naming the floor, returned before the
// hazard fit, from both the serving boot and the bake.
func TestSmallCensusIsConfigError(t *testing.T) {
	cfg := Config{
		Networks:   []*topology.Network{datasets.NetworkByName("Sprint")},
		Blocks:     100,
		EventScale: 0.03,
	}
	floor := strconv.Itoa(datasets.MinCensusBlocks)
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), floor) {
		t.Errorf("New with %d blocks: %v, want an error naming %s", cfg.Blocks, err, floor)
	}
	if _, err := BakeWorld(cfg); err == nil || !strings.Contains(err.Error(), floor) {
		t.Errorf("BakeWorld with %d blocks: %v, want an error naming %s", cfg.Blocks, err, floor)
	}
}

// TestRepeatedNetworkIsConfigError: requests name networks, so a corpus
// listing one name twice is refused at boot with an error naming it,
// before the hazard fit.
func TestRepeatedNetworkIsConfigError(t *testing.T) {
	_, err := New(Config{
		Networks: []*topology.Network{datasets.NetworkByName("Sprint"),
			datasets.NetworkByName("Abilene"), datasets.NetworkByName("Sprint")},
		Blocks:     4000,
		EventScale: 0.03,
	})
	if err == nil || !strings.Contains(err.Error(), `"Sprint"`) {
		t.Errorf("New with Sprint listed twice: %v, want an error naming it", err)
	}
}

// TestBakeRefusesRepeatedNetwork: a bake of a corpus no daemon can boot
// fails with New's error, before the fit opens its span.
func TestBakeRefusesRepeatedNetwork(t *testing.T) {
	root := obs.NewTrace("bake")
	world, err := BakeWorld(Config{
		Networks: []*topology.Network{datasets.NetworkByName("Sprint"),
			datasets.NetworkByName("Sprint")},
		Blocks:     4000,
		EventScale: 0.03,
		Trace:      root,
	})
	if err == nil || !strings.Contains(err.Error(), `network "Sprint" is listed twice`) {
		t.Errorf("BakeWorld with Sprint listed twice: %v, want an error naming it", err)
	}
	if world != nil {
		t.Errorf("BakeWorld returned a world with %d networks", len(world.Networks))
	}
	snap := root.Snapshot()
	if span := snap.Find("world-bake"); span != nil {
		t.Errorf("BakeWorld opened %q before refusing the corpus", span.Name)
	}
}

func TestReadyAndHealth(t *testing.T) {
	s := testServer(t)
	if !s.ready.Load() || s.draining.Load() {
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

	firstBody := rawGet(t, s, path)
	var first routeResponse
	if err := json.Unmarshal(firstBody, &first); err != nil {
		t.Fatalf("route: %v", err)
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

	if second := rawGet(t, s, path); string(second) != asHit(t, firstBody) {
		t.Fatalf("second identical query is not the first body with \"cached\": true:\n%s\n%s", firstBody, second)
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

// TestNegativeZeroLambda pins the echo of a λ given as −0. It passes the
// sign check and shares +0's cache key, so every endpoint must echo it as 0
// and a route must not depend on which of the two queries came first.
func TestNegativeZeroLambda(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	a, b := net.PoPs[0].Name, net.PoPs[1].Name
	for _, tc := range []struct{ path, want string }{
		{routeURL(a, b, "lambda_h", "-0"), `"lambda_h": 0,`},
		{routeURL(a, b, "lambda_f", "-0"), `"lambda_f": 0,`},
		{"/v1/ratio?network=Sprint&lambda_h=-0", `"lambda_h": 0,`},
		{"/v1/risk?network=Sprint&lambda_f=-0", `"lambda_f": 0,`},
		{"/v1/edges/top?network=Sprint&k=1&lambda_h=-0", `"lambda_h": 0,`},
		{"/debug/hazard?lat=33.749&lon=-84.388&lambda_f=-0", `"lambda_f": 0,`},
	} {
		s.cache.Reset()
		if body := rawGet(t, s, tc.path); !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s: body lacks %s:\n%s", tc.path, tc.want, body)
		}
	}

	var bodies []string
	for _, order := range [][2]string{{"-0", "0"}, {"0", "-0"}} {
		s.cache.Reset()
		first := rawGet(t, s, routeURL(a, b, "lambda_h", order[0]))
		second := rawGet(t, s, routeURL(a, b, "lambda_h", order[1]))
		if string(second) != asHit(t, first) {
			t.Fatalf("lambda_h=%s after lambda_h=%s is not the first body with \"cached\": true:\n%s\n%s",
				order[1], order[0], first, second)
		}
		bodies = append(bodies, string(first))
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("lambda_h=-0 and lambda_h=0 answer differently by arrival order:\n%s\n%s", bodies[0], bodies[1])
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

// postAdvisory POSTs body to /v1/advisory and returns the recorder.
func postAdvisory(s *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advisory", strings.NewReader(body)))
	return rec
}

// healthServer boots a Sprint-only server of its own with a Health report
// and a registry, for tests that count what a request leaves behind.
func healthServer(t *testing.T) (*Server, *resilience.Health) {
	t.Helper()
	health := resilience.NewHealth()
	s, err := New(Config{
		Networks:   []*topology.Network{datasets.NetworkByName("Sprint")},
		Blocks:     4000,
		EventScale: 0.03,
		Seed:       1,
		Metrics:    obs.NewRegistry(),
		Health:     health,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return s, health
}

// TestAdvisoryPlausibilityGate pins that POST /v1/advisory applies the
// advisory feed's gate (forecast.ValidateAdvisory), not only the parser:
// a bulletin edited to an implausible value parses, yet answers 400 naming
// the field and leaves the generation, the swap timeline and
// serve.swaps_total as they were. The unedited bulletin then swaps.
func TestAdvisoryPlausibilityGate(t *testing.T) {
	s, _ := healthServer(t)
	valid := sandyReplay(t).Advisories[10].Text()
	swaps := s.cfg.Metrics.Counter("serve.swaps_total")
	for _, tc := range []struct {
		name, pattern, repl, field string
	}{
		{"900 mph winds", `WINDS ARE NEAR \d+ MPH`, "WINDS ARE NEAR 900 MPH", "maximum winds"},
		{"99,999-mile tropical radius", `TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO \d+ MILES`,
			"TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 99999 MILES", "tropical radius"},
		{"advisory number 0", `ADVISORY NUMBER \d+`, "ADVISORY NUMBER 0", "advisory number"},
	} {
		re := regexp.MustCompile(tc.pattern)
		if !re.MatchString(valid) {
			t.Fatalf("%s: pattern %q not in the bulletin", tc.name, tc.pattern)
		}
		body := re.ReplaceAllString(valid, tc.repl)
		if _, err := forecast.ParseAdvisory(body); err != nil {
			t.Fatalf("%s: edited bulletin does not parse: %v", tc.name, err)
		}
		gen, events, swapped := s.Generation(), len(s.timeline.Records()), swaps.Value()
		rec := postAdvisory(s, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.field) {
			t.Errorf("%s: %d %s, want 400 naming %q", tc.name, rec.Code, rec.Body.Bytes(), tc.field)
		}
		if s.Generation() != gen || len(s.timeline.Records()) != events || swaps.Value() != swapped {
			t.Errorf("%s: generation %d -> %d, timeline %d -> %d, swaps_total %d -> %d, want unchanged",
				tc.name, gen, s.Generation(), events, len(s.timeline.Records()), swapped, swaps.Value())
		}
	}
	gen := s.Generation()
	if rec := postAdvisory(s, valid); rec.Code != http.StatusOK || s.Generation() != gen+1 {
		t.Fatalf("unedited bulletin: %d %s, generation %d -> %d", rec.Code, rec.Body.Bytes(), gen, s.Generation())
	}
}

// TestRejectedAdvisoriesRetainNothing pins that a rejected POST
// /v1/advisory leaves no health event behind: the 400 is counted in
// serve.errors_total and logged, so a client posting junk cannot grow the
// daemon's memory.
func TestRejectedAdvisoriesRetainNothing(t *testing.T) {
	s, health := healthServer(t)
	valid := sandyReplay(t).Advisories[10].Text()
	junk := []string{"", "NOT A BULLETIN", valid[:len(valid)/2],
		strings.Replace(valid, "LATITUDE", "LATITUDE JUNK", 1)}
	events := health.Events()
	for k := 0; k < 50; k++ {
		if rec := postAdvisory(s, junk[k%len(junk)]); rec.Code != http.StatusBadRequest {
			t.Fatalf("rejected POST %d: %d %s, want 400", k, rec.Code, rec.Body.Bytes())
		}
	}
	if got := health.Events(); !reflect.DeepEqual(got, events) {
		t.Errorf("50 rejected POSTs took health from %d events to %d", len(events), len(got))
	}
}

func TestDrainFlipsReadyz(t *testing.T) {
	s := testServer(t)
	s.Drain()
	defer s.draining.Store(false) // shared server: restore for later tests
	if !s.draining.Load() {
		t.Fatal("Drain did not mark the server draining")
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
