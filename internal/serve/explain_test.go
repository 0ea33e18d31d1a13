package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/obs"
	"riskroute/internal/risk"
	"riskroute/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden fixtures")

// TestRouteExplain pins the HTTP attribution contract over a parity suite of
// pairs: both legs reconcile bit-identically (JSON float64 round-trips are
// exact), edge counts match path lengths, and the per-edge parts re-sum to
// the leg cost in the engine's operation order.
func TestRouteExplain(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	n := len(net.PoPs)
	pairs := [][2]int{{0, n - 1}, {0, n / 2}, {1, n - 2}, {n / 3, 2 * n / 3}}
	for _, pr := range pairs {
		from, to := net.PoPs[pr[0]].Name, net.PoPs[pr[1]].Name
		var resp routeResponse
		if code := get(t, s, routeURL(from, to, "explain", "1"), &resp); code != http.StatusOK {
			t.Fatalf("explain %s->%s: %d", from, to, code)
		}
		ex := resp.Explain
		if ex == nil {
			t.Fatalf("explain %s->%s: no attribution block", from, to)
		}
		for _, leg := range []struct {
			name string
			leg  explainLeg
			want pathLeg
		}{
			{"riskroute", ex.RiskRoute, resp.RiskRoute},
			{"shortest", ex.Shortest, resp.Shortest},
		} {
			if !leg.leg.Reconciled {
				t.Fatalf("%s->%s %s: Reconciled false", from, to, leg.name)
			}
			if math.Float64bits(leg.leg.Cost) != math.Float64bits(leg.want.BitRiskMiles) {
				t.Fatalf("%s->%s %s: cost %v != bit_risk_miles %v",
					from, to, leg.name, leg.leg.Cost, leg.want.BitRiskMiles)
			}
			if math.Float64bits(leg.leg.Miles) != math.Float64bits(leg.want.Miles) {
				t.Fatalf("%s->%s %s: miles %v != %v", from, to, leg.name, leg.leg.Miles, leg.want.Miles)
			}
			if len(leg.leg.Edges) != len(leg.want.Path)-1 {
				t.Fatalf("%s->%s %s: %d edges for %d-node path",
					from, to, leg.name, len(leg.leg.Edges), len(leg.want.Path))
			}
			// Client-side replay of the reconciliation.
			total := 0.0
			for i, ed := range leg.leg.Edges {
				if ed.From != leg.want.Path[i] || ed.To != leg.want.Path[i+1] {
					t.Fatalf("%s->%s %s edge %d: (%s,%s) off the path",
						from, to, leg.name, i, ed.From, ed.To)
				}
				if math.Float64bits(ed.Cost) != math.Float64bits(ed.Miles+ed.RiskCost) {
					t.Fatalf("%s->%s %s edge %d: cost %v != miles+risk_cost", from, to, leg.name, i, ed.Cost)
				}
				total += ed.Miles
				total += ed.RiskCost
			}
			if math.Float64bits(total) != math.Float64bits(leg.leg.Cost) {
				t.Fatalf("%s->%s %s: client replay %v != cost %v", from, to, leg.name, total, leg.leg.Cost)
			}
		}
	}
}

// TestRouteExplainCacheBypass checks explain requests neither read nor write
// the result cache, so the explain-off hot path is untouched.
func TestRouteExplainCacheBypass(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	from, to := net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name
	s.cache.Reset()

	// An explain request must not populate the cache ...
	var ex1 routeResponse
	get(t, s, routeURL(from, to, "explain", "1"), &ex1)
	if ex1.Cached || ex1.Explain == nil {
		t.Fatalf("explain response: cached=%v explain=%v", ex1.Cached, ex1.Explain != nil)
	}
	var plain routeResponse
	get(t, s, routeURL(from, to), &plain)
	if plain.Cached {
		t.Fatal("plain route hit a cache entry an explain request created")
	}
	if plain.Explain != nil {
		t.Fatal("plain route carries an attribution block")
	}

	// ... and must not serve from one: the plain request above cached the
	// pair, yet explain still answers with full attribution.
	var ex2 routeResponse
	get(t, s, routeURL(from, to, "explain", "1"), &ex2)
	if ex2.Cached || ex2.Explain == nil || !ex2.Explain.RiskRoute.Reconciled {
		t.Fatalf("explain after cache warm: cached=%v explain=%v", ex2.Cached, ex2.Explain != nil)
	}
}

// geojson decode shapes (decode-only; the encode side uses ordered structs).
type gjFeature struct {
	Type     string `json:"type"`
	Geometry struct {
		Type        string          `json:"type"`
		Coordinates json.RawMessage `json:"coordinates"` // shape varies by geometry type
	} `json:"geometry"`
	Properties map[string]any `json:"properties"`
}

// lineCoords decodes a LineString feature's coordinate list.
func lineCoords(tb testing.TB, f gjFeature) [][2]float64 {
	tb.Helper()
	var out [][2]float64
	if err := json.Unmarshal(f.Geometry.Coordinates, &out); err != nil {
		tb.Fatalf("coordinates %s: %v", f.Geometry.Coordinates, err)
	}
	return out
}

type gjExplain struct {
	Type       string `json:"type"`
	Generation uint64 `json:"generation"`
	Network    string `json:"network"`
	Totals     struct {
		RiskRoute explainLeg `json:"riskroute"`
		Shortest  explainLeg `json:"shortest"`
	} `json:"totals"`
	Features []gjFeature `json:"features"`
}

// TestRouteExplainGeoJSON checks the FeatureCollection shape: one LineString
// per traversed edge with [lon, lat] coordinates matching the PoP locations,
// riskroute leg first, and totals that reconcile to the JSON body's costs.
func TestRouteExplainGeoJSON(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	from, to := net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name

	var plain routeResponse
	get(t, s, routeURL(from, to, "explain", "1"), &plain)
	var fc gjExplain
	if code := get(t, s, routeURL(from, to, "explain", "1", "format", "geojson"), &fc); code != http.StatusOK {
		t.Fatalf("geojson explain: %d", code)
	}
	if fc.Type != "FeatureCollection" || fc.Network != "Sprint" {
		t.Fatalf("collection header: %+v", fc)
	}
	wantFeatures := len(plain.RiskRoute.Path) - 1 + len(plain.Shortest.Path) - 1
	if len(fc.Features) != wantFeatures {
		t.Fatalf("%d features, want %d", len(fc.Features), wantFeatures)
	}
	if math.Float64bits(fc.Totals.RiskRoute.Cost) != math.Float64bits(plain.RiskRoute.BitRiskMiles) {
		t.Fatalf("geojson riskroute total %v != %v", fc.Totals.RiskRoute.Cost, plain.RiskRoute.BitRiskMiles)
	}
	if math.Float64bits(fc.Totals.Shortest.Cost) != math.Float64bits(plain.Shortest.BitRiskMiles) {
		t.Fatalf("geojson shortest total %v != %v", fc.Totals.Shortest.Cost, plain.Shortest.BitRiskMiles)
	}
	if len(fc.Totals.RiskRoute.Edges) != 0 {
		t.Fatal("totals carry edge lists (they belong in features)")
	}
	f0 := fc.Features[0]
	if f0.Type != "Feature" || f0.Geometry.Type != "LineString" {
		t.Fatalf("feature 0: %+v", f0)
	}
	if f0.Properties["leg"] != "riskroute" || f0.Properties["seq"] != float64(0) {
		t.Fatalf("feature 0 properties: %+v", f0.Properties)
	}
	// Coordinates are [lon, lat] of the path's PoPs.
	src := net.PoPs[net.PoPIndex(from)].Location
	if coords := lineCoords(t, f0); coords[0] != [2]float64{src.Lon, src.Lat} {
		t.Fatalf("feature 0 start %v, want [%v %v]", coords[0], src.Lon, src.Lat)
	}
	last := fc.Features[len(fc.Features)-1]
	if last.Properties["leg"] != "shortest" {
		t.Fatalf("last feature leg: %v", last.Properties["leg"])
	}
}

// TestExplainHotSwapRegion is the advisory-region property: explain a fixed
// path before and after a hot swap — edges entering nodes outside the
// advisory's wind radii are bit-identical across generations, and edges
// entering nodes inside differ only in their forecast term.
func TestExplainHotSwapRegion(t *testing.T) {
	s := testServer(t)
	replay := sandyReplay(t)
	snapPre := s.snap.Load()
	st := snapPre.states[s.nets["Sprint"]]

	// Pick an advisory that actually covers part of the network, and aim the
	// route at the PoP nearest its center so the fixed path ends in-region.
	dst, adv := -1, replay.Advisories[0]
	for _, cand := range replay.Advisories {
		best, bestD := -1, math.Inf(1)
		for i, p := range st.net.PoPs {
			if d := geo.Distance(cand.Center, p.Location); d < bestD {
				best, bestD = i, d
			}
		}
		if bestD <= cand.TropicalRadiusMi {
			dst, adv = best, cand
		}
	}
	if dst < 0 {
		t.Fatal("no Sandy advisory covers any Sprint PoP; property vacuous")
	}
	src := 0
	if src == dst {
		src = 1
	}
	path := st.engine.RiskRoutePair(src, dst).Path
	if len(path) < 2 {
		t.Fatalf("degenerate fixed path %v", path)
	}
	exPre := st.engine.ExplainPath(path, src, dst)

	if _, err := s.ApplyParsed(adv, 0); err != nil {
		t.Fatalf("ApplyParsed: %v", err)
	}
	stPost := s.snap.Load().states[s.nets["Sprint"]]
	exPost := stPost.engine.ExplainPath(path, src, dst)

	if exPre.Alpha != exPost.Alpha {
		t.Fatalf("alpha moved across swap: %v -> %v", exPre.Alpha, exPost.Alpha)
	}
	// An edge's forecast term may move only if the node it enters sits
	// inside a wind field of either the outgoing advisory (the shared
	// server may already carry one from an earlier test) or the new one.
	insideAdv := func(center geo.Point, hurricaneMi, tropicalMi float64, p geo.Point) bool {
		d := geo.Distance(center, p)
		return (hurricaneMi > 0 && d <= hurricaneMi) || d <= tropicalMi
	}
	preAdv := snapPre.advisory
	sawInside := false
	for i := range exPre.Edges {
		a, b := exPre.Edges[i], exPost.Edges[i]
		entered := st.net.PoPs[b.To].Location
		insideNew := insideAdv(adv.Center, adv.HurricaneRadiusMi, adv.TropicalRadiusMi, entered)
		insidePre := preAdv != nil &&
			insideAdv(preAdv.Center, preAdv.HurricaneRadiusMi, preAdv.TropicalRadiusMi, entered)
		// The swap only rebuilds the forecast layer: distance, base hazard,
		// and span terms are bit-identical either way.
		if math.Float64bits(a.Miles) != math.Float64bits(b.Miles) ||
			math.Float64bits(a.BaseRisk) != math.Float64bits(b.BaseRisk) ||
			math.Float64bits(a.SpanRisk) != math.Float64bits(b.SpanRisk) {
			t.Fatalf("edge %d: non-forecast terms moved across swap: %+v vs %+v", i, a, b)
		}
		switch {
		case !insideNew && !insidePre:
			if math.Float64bits(a.RiskCost) != math.Float64bits(b.RiskCost) ||
				math.Float64bits(a.ForecastRisk) != math.Float64bits(b.ForecastRisk) {
				t.Fatalf("edge %d outside both advisory regions changed across swap: %+v vs %+v", i, a, b)
			}
		case insideNew:
			sawInside = true
			if b.ForecastRisk <= 0 {
				t.Fatalf("edge %d enters the new advisory region but forecast term is %v",
					i, b.ForecastRisk)
			}
		}
	}
	if !sawInside {
		t.Fatal("fixed path never entered the advisory region; property vacuous")
	}
}

// TestEdgesTop checks the network-wide riskiest-edges report against the
// engine's own ranking, the k parameter, the GeoJSON variant, and the error
// paths.
func TestEdgesTop(t *testing.T) {
	s := testServer(t)
	st := s.snap.Load().states[s.nets["Sprint"]]
	want := st.engine.TopRiskEdges(0)

	var resp edgesTopResponse
	if code := get(t, s, "/v1/edges/top?network=Sprint", &resp); code != http.StatusOK {
		t.Fatalf("edges/top: %d", code)
	}
	if resp.Network != "Sprint" || resp.Links != len(st.net.Links) {
		t.Fatalf("report header: %+v", resp)
	}
	wantK := 10
	if len(want) < wantK {
		wantK = len(want)
	}
	if resp.K != wantK || len(resp.Edges) != wantK {
		t.Fatalf("default k: K=%d edges=%d want %d", resp.K, len(resp.Edges), wantK)
	}
	for i, e := range resp.Edges {
		if math.Float64bits(e.Risk) != math.Float64bits(want[i].Risk) {
			t.Fatalf("rank %d: risk %v != engine %v", i, e.Risk, want[i].Risk)
		}
		if e.From != st.net.PoPs[want[i].A].Name || e.To != st.net.PoPs[want[i].B].Name {
			t.Fatalf("rank %d: endpoints %s-%s", i, e.From, e.To)
		}
		if i > 0 && e.Risk > resp.Edges[i-1].Risk {
			t.Fatalf("rank %d out of order", i)
		}
	}

	var k3 edgesTopResponse
	get(t, s, "/v1/edges/top?network=Sprint&k=3", &k3)
	if k3.K != 3 || len(k3.Edges) != 3 || k3.Edges[0] != resp.Edges[0] {
		t.Fatalf("k=3 report: %+v", k3)
	}

	var fc struct {
		Type     string      `json:"type"`
		K        int         `json:"k"`
		Features []gjFeature `json:"features"`
	}
	get(t, s, "/v1/edges/top?network=Sprint&k=3&format=geojson", &fc)
	if fc.Type != "FeatureCollection" || fc.K != 3 || len(fc.Features) != 3 {
		t.Fatalf("geojson report: type=%q k=%d features=%d", fc.Type, fc.K, len(fc.Features))
	}
	if fc.Features[0].Properties["rank"] != float64(1) {
		t.Fatalf("first feature rank: %v", fc.Features[0].Properties["rank"])
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/edges/top", http.StatusBadRequest},
		{"/v1/edges/top?network=Nope", http.StatusNotFound},
		{"/v1/edges/top?network=Sprint&k=0", http.StatusBadRequest},
		{"/v1/edges/top?network=Sprint&k=x", http.StatusBadRequest},
		{"/v1/edges/top?network=Sprint&lambda_h=-1", http.StatusBadRequest},
		{"/v1/edges/top?network=Sprint&lambda_h=1e308", http.StatusBadRequest},
	} {
		if code := get(t, s, tc.path, nil); code != tc.want {
			t.Errorf("GET %s: %d, want %d", tc.path, code, tc.want)
		}
	}
}

// TestHazardProbeEndpoint checks /debug/hazard answers bit-identically to
// the hazard model, carries per-catalog attribution, and validates input.
func TestHazardProbeEndpoint(t *testing.T) {
	s := testServer(t)
	q := url.Values{"lat": {"29.95"}, "lon": {"-90.07"}}
	var resp hazardProbeResponse
	if code := get(t, s, "/debug/hazard?"+q.Encode(), &resp); code != http.StatusOK {
		t.Fatalf("hazard probe: %d", code)
	}
	p := geo.Point{Lat: 29.95, Lon: -90.07}
	if math.Float64bits(resp.Hist) != math.Float64bits(s.model.RiskAt(p)) {
		t.Fatalf("probe hist %v != model %v", resp.Hist, s.model.RiskAt(p))
	}
	if len(resp.Sources) != len(s.model.Sources) {
		t.Fatalf("%d sources, model has %d", len(resp.Sources), len(s.model.Sources))
	}
	pp := risk.PaperParams()
	wantNode := pp.LambdaH*resp.Hist + pp.LambdaF*resp.Forecast
	if math.Float64bits(resp.NodeRisk) != math.Float64bits(wantNode) {
		t.Fatalf("node_risk %v, want %v", resp.NodeRisk, wantNode)
	}
	if (s.snap.Load().advisory != nil) != (resp.Advisory != nil) {
		t.Fatalf("advisory block presence mismatches snapshot (%v)", resp.Advisory)
	}

	var fc struct {
		Type     string      `json:"type"`
		Features []gjFeature `json:"features"`
	}
	get(t, s, "/debug/hazard?format=geojson&"+q.Encode(), &fc)
	if fc.Type != "FeatureCollection" || len(fc.Features) != 1 ||
		fc.Features[0].Geometry.Type != "Point" {
		t.Fatalf("geojson probe: %+v", fc)
	}

	// At the riskiest PoP, lambda_h=1e308 overflows node_risk.
	st := s.snap.Load().states[0]
	hot := 0
	for i, h := range st.hist {
		if h > st.hist[hot] {
			hot = i
		}
	}
	loc := st.net.PoPs[hot].Location
	overflow := url.Values{"lat": {fmt.Sprint(loc.Lat)}, "lon": {fmt.Sprint(loc.Lon)}, "lambda_h": {"1e308"}}
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/debug/hazard", http.StatusBadRequest},
		{"/debug/hazard?lat=1", http.StatusBadRequest},
		{"/debug/hazard?lat=abc&lon=0", http.StatusBadRequest},
		{"/debug/hazard?lat=95&lon=0", http.StatusBadRequest},
		{"/debug/hazard?lat=30&lon=1e308", http.StatusBadRequest},
		{"/debug/hazard?lat=30&lon=-180.5", http.StatusBadRequest},
		{"/debug/hazard?lat=1&lon=2&lambda_f=NaN", http.StatusBadRequest},
		{"/debug/hazard?" + overflow.Encode(), http.StatusBadRequest},
	} {
		if code := get(t, s, tc.path, nil); code != tc.want {
			t.Errorf("GET %s: %d, want %d", tc.path, code, tc.want)
		}
	}
}

// TestNewEndpointsEchoRequestID checks the new surfaces ride the shared
// statusHandler/traced path: inbound X-Request-Id comes back on every
// response, success or error.
func TestNewEndpointsEchoRequestID(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	for _, path := range []string{
		"/v1/edges/top?network=Sprint&k=2",
		"/debug/hazard?lat=30&lon=-90",
		"/v1/edges/top", // error path shares the encoding too
		routeURL(net.PoPs[0].Name, net.PoPs[1].Name, "explain", "1"),
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("X-Request-Id", "edge-probe-7")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if got := rec.Header().Get("X-Request-Id"); got != "edge-probe-7" {
			t.Errorf("GET %s: X-Request-Id %q not echoed", path, got)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", path, ct)
		}
	}
}

// TestExplainMetrics checks the attribution telemetry lands in the registry,
// and only for a request that asks for attribution. A plain route's miss
// and then its hits from either index, with no explain, explain=0 or
// explain=false, leave serve.explain.requests_total and the
// serve.explain.depth count where they were; each explain=1 ask adds one to
// both, though its plain twin is cached. A hazard probe adds one to
// serve.hazard.probes_total.
func TestExplainMetrics(t *testing.T) {
	s := testServer(t)
	net := s.bases[0].net
	from, to := net.PoPs[0].Name, net.PoPs[2].Name
	explains, depth := s.tel.explains.Value(), s.tel.explainDepth.Count()
	for _, extra := range [][]string{nil, {"explain", "0"}, {"explain", "false"}} {
		text := routeURL(from, to, extra...)
		s.cache.Reset()
		// A miss, a raw-index hit on the same text, and a keyed hit on a
		// text that parses alike.
		for i, path := range []string{text, text, text + "&junk=1"} {
			hit := i > 0
			var resp routeResponse
			if code := get(t, s, path, &resp); code != http.StatusOK || resp.Cached != hit || resp.Explain != nil {
				t.Fatalf("GET %s: %d, cached %v, explain %v; want 200, cached %v, no explain",
					path, code, resp.Cached, resp.Explain != nil, hit)
			}
			if e, d := s.tel.explains.Value(), s.tel.explainDepth.Count(); e != explains || d != depth {
				t.Fatalf("GET %s (cached %v): explain requests %d → %d, depth count %d → %d, want unchanged",
					path, hit, explains, e, depth, d)
			}
		}
	}
	for i := int64(1); i <= 2; i++ {
		get(t, s, routeURL(from, to, "explain", "1"), nil)
		if e, d := s.tel.explains.Value(), s.tel.explainDepth.Count(); e != explains+i || d != depth+i {
			t.Fatalf("explain ask %d: explain requests %d, depth count %d, want %d and %d",
				i, e, d, explains+i, depth+i)
		}
	}
	pb := s.tel.probes.Value()
	get(t, s, "/debug/hazard?lat=30&lon=-90", nil)
	if got := s.tel.probes.Value(); got != pb+1 {
		t.Fatalf("probe counter %v, want %v", got, pb+1)
	}
}

// goldenServer is a dedicated generation-1 world for byte-level fixtures:
// the shared testServer's generation moves as advisory tests run, but the
// golden GeoJSON is pinned to the fresh-boot world the CI smoke test and the
// CLI parity test also build (Sprint, 4000 blocks, event scale 0.03, seed 1).
var (
	goldenOnce sync.Once
	goldenSrv  *Server
	goldenErr  error
)

func goldenServer(tb testing.TB) *Server {
	tb.Helper()
	goldenOnce.Do(func() {
		goldenSrv, goldenErr = New(Config{
			Networks:   []*topology.Network{datasets.NetworkByName("Sprint")},
			Blocks:     4000,
			EventScale: 0.03,
			Seed:       1,
			Metrics:    obs.NewRegistry(),
		})
	})
	if goldenErr != nil {
		tb.Fatalf("serve.New (golden): %v", goldenErr)
	}
	return goldenSrv
}

const goldenExplainPath = "testdata/explain_golden.geojson"

// goldenExplainURL is the exact query the CI smoke test curls and the CLI
// parity test replays.
func goldenExplainURL() string {
	v := url.Values{"network": {"Sprint"}, "from": {"Atlanta"}, "to": {"Seattle"},
		"explain": {"1"}, "format": {"geojson"}}
	return "/v1/route?" + v.Encode()
}

// checkGolden serves target on the golden world and requires the body to match
// the fixture at path byte for byte; -update-golden rewrites the fixture.
func checkGolden(t *testing.T, target, path string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	goldenServer(t).Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", target, rec.Code, rec.Body.Bytes())
	}
	got := rec.Body.Bytes()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return got
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("GET %s drifted from golden fixture %s (%d vs %d bytes);\n"+
			"if intentional, regenerate with -update-golden\ngot:\n%s", target, path, len(got), len(want), got)
	}
	return want
}

// TestExplainGoldenGeoJSON pins the generation-1 Atlanta→Seattle explanation
// byte for byte. Regenerate with: go test ./internal/serve -run Golden -update-golden
func TestExplainGoldenGeoJSON(t *testing.T) {
	want := checkGolden(t, goldenExplainURL(), goldenExplainPath)
	// The fixture must itself be valid GeoJSON that reconciles.
	var fc gjExplain
	if err := json.Unmarshal(want, &fc); err != nil {
		t.Fatalf("golden fixture is not JSON: %v", err)
	}
	if fc.Type != "FeatureCollection" || fc.Generation != 1 || !fc.Totals.RiskRoute.Reconciled {
		t.Fatalf("golden fixture header: type=%q gen=%d reconciled=%v",
			fc.Type, fc.Generation, fc.Totals.RiskRoute.Reconciled)
	}
}

// TestAttributionGolden pins the generation-1 /v1/edges/top and /debug/hazard
// bodies, JSON and GeoJSON, byte for byte. Regenerate with:
// go test ./internal/serve -run Golden -update-golden
func TestAttributionGolden(t *testing.T) {
	for _, tc := range []struct{ target, path string }{
		{"/v1/edges/top?network=Sprint&k=3", "testdata/edges_top_golden.json"},
		{"/v1/edges/top?network=Sprint&k=3&format=geojson", "testdata/edges_top_golden.geojson"},
		{"/debug/hazard?lat=33.749&lon=-84.388", "testdata/hazard_probe_golden.json"},
		{"/debug/hazard?lat=33.749&lon=-84.388&format=geojson", "testdata/hazard_probe_golden.geojson"},
	} {
		checkGolden(t, tc.target, tc.path)
	}
}
