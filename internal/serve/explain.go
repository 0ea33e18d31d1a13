package serve

// The attribution surface: /v1/route?explain=1, /v1/edges/top, and
// /debug/hazard. Every endpoint answers JSON by default and a GeoJSON
// FeatureCollection with ?format=geojson — ordered struct encodings only
// (no maps), so two servers over the same world generation emit identical
// bytes, and the batch CLI's `riskroute explain` (which routes an
// in-process request through this same handler chain) is byte-identical to
// the daemon by construction.

import (
	"math"
	"net/http"
	"net/url"
	"strconv"

	"riskroute/internal/core"
	"riskroute/internal/geo"
	"riskroute/internal/risk"
)

// wantExplain reports whether a parsed query asks for route attribution.
func wantExplain(q url.Values) bool {
	v := q.Get("explain")
	return v != "" && v != "0" && v != "false"
}

// explainEdge is one edge's attribution in a route explanation, PoP names
// resolved. The fields mirror core.EdgeAttribution.
type explainEdge struct {
	From         string  `json:"from"`
	To           string  `json:"to"`
	Miles        float64 `json:"miles"`
	BaseRisk     float64 `json:"base_risk"`
	ForecastRisk float64 `json:"forecast_risk"`
	SpanRisk     float64 `json:"span_risk"`
	RiskCost     float64 `json:"risk_cost"`
	Cost         float64 `json:"cost"`
}

// explainLeg is one leg's full decomposition. Cost re-sums the per-edge
// parts in the engine's exact operation order; Reconciled records that it
// equals the leg's bit_risk_miles bit for bit (always true — asserted by
// tests — but carried in the body so external consumers can see the
// invariant held for the response they got).
type explainLeg struct {
	Edges        []explainEdge `json:"edges,omitempty"`
	Miles        float64       `json:"miles"`
	BaseRisk     float64       `json:"base_risk"`
	ForecastRisk float64       `json:"forecast_risk"`
	SpanRisk     float64       `json:"span_risk"`
	RiskCost     float64       `json:"risk_cost"`
	Cost         float64       `json:"cost"`
	Reconciled   bool          `json:"reconciled"`
}

// routeExplanation is the explain=1 block of a route response.
type routeExplanation struct {
	Alpha     float64    `json:"alpha"`
	RiskRoute explainLeg `json:"riskroute"`
	Shortest  explainLeg `json:"shortest"`
}

// explainLegOf converts a core explanation, checking the reconciliation
// against the leg's independently computed cost.
func (s *Server) explainLegOf(st *netState, ex core.Explanation, legCost float64) explainLeg {
	leg := explainLeg{
		Edges:        make([]explainEdge, len(ex.Edges)),
		Miles:        ex.Miles,
		BaseRisk:     ex.BaseRisk,
		ForecastRisk: ex.ForecastRisk,
		SpanRisk:     ex.SpanRisk,
		RiskCost:     ex.RiskCost,
		Cost:         ex.Cost,
		Reconciled:   math.Float64bits(ex.Cost) == math.Float64bits(legCost),
	}
	for i, ed := range ex.Edges {
		leg.Edges[i] = explainEdge{
			From:         st.net.PoPs[ed.From].Name,
			To:           st.net.PoPs[ed.To].Name,
			Miles:        ed.Miles,
			BaseRisk:     ed.BaseRisk,
			ForecastRisk: ed.ForecastRisk,
			SpanRisk:     ed.SpanRisk,
			RiskCost:     ed.RiskCost,
			Cost:         ed.Cost,
		}
	}
	return leg
}

// GeoJSON encoding (RFC 7946). Geometry coordinates are [lon, lat].
// Foreign members on the FeatureCollection carry the generation and query
// context so the document is self-describing on a map or in a pipeline.

type geoGeometry struct {
	Type        string `json:"type"`
	Coordinates any    `json:"coordinates"`
}

type geoFeature struct {
	Type       string      `json:"type"`
	Geometry   geoGeometry `json:"geometry"`
	Properties any         `json:"properties"`
}

func lineGeom(a, b geo.Point) geoGeometry {
	return geoGeometry{Type: "LineString",
		Coordinates: [2][2]float64{{a.Lon, a.Lat}, {b.Lon, b.Lat}}}
}

func pointGeom(p geo.Point) geoGeometry {
	return geoGeometry{Type: "Point", Coordinates: [2]float64{p.Lon, p.Lat}}
}

// edgeProps is the per-segment attribution payload of an explain feature.
type edgeProps struct {
	Leg string `json:"leg"`
	Seq int    `json:"seq"`
	explainEdge
}

// explainTotals carries both legs' totals (edge lists elided) as a foreign
// member of the FeatureCollection.
type explainTotals struct {
	RiskRoute explainLeg `json:"riskroute"`
	Shortest  explainLeg `json:"shortest"`
}

// explainFC is the GeoJSON shape of an explained route: one LineString
// feature per traversed edge, riskroute leg first, then the shortest leg.
type explainFC struct {
	Type       string        `json:"type"`
	Generation uint64        `json:"generation"`
	Network    string        `json:"network"`
	From       string        `json:"from"`
	To         string        `json:"to"`
	LambdaH    float64       `json:"lambda_h"`
	LambdaF    float64       `json:"lambda_f"`
	Alpha      float64       `json:"alpha"`
	Storm      string        `json:"storm,omitempty"`
	Advisory   int           `json:"advisory,omitempty"`
	Totals     explainTotals `json:"totals"`
	Features   []geoFeature  `json:"features"`
}

// legFeatures renders one explained leg as per-edge LineString features.
func (s *Server) legFeatures(st *netState, legName string, leg explainLeg, path []int, out []geoFeature) []geoFeature {
	for i, ed := range leg.Edges {
		a := st.net.PoPs[path[i]].Location
		b := st.net.PoPs[path[i+1]].Location
		out = append(out, geoFeature{
			Type:       "Feature",
			Geometry:   lineGeom(a, b),
			Properties: edgeProps{Leg: legName, Seq: i, explainEdge: ed},
		})
	}
	return out
}

// buildExplanation decomposes both legs of an already-computed route and
// records the explain telemetry. The route's own paths are re-priced (not
// re-routed), so the explanation describes exactly the response it rides in.
func (s *Server) buildExplanation(st *netState, eng *core.Engine, src, dst int,
	rr, sp core.PairResult) *routeExplanation {

	exRR := eng.ExplainPath(rr.Path, src, dst)
	exSP := eng.ExplainPath(sp.Path, src, dst)
	s.tel.explains.Inc()
	s.tel.explainDepth.Observe(float64(len(exRR.Edges) + len(exSP.Edges)))
	return &routeExplanation{
		Alpha:     exRR.Alpha,
		RiskRoute: s.explainLegOf(st, exRR, rr.BitRiskMiles),
		Shortest:  s.explainLegOf(st, exSP, sp.BitRiskMiles),
	}
}

// explainGeoJSON renders an explained route response as a FeatureCollection.
func (s *Server) explainGeoJSON(st *netState, resp *routeResponse, ex *routeExplanation,
	rrPath, spPath []int) explainFC {

	fc := explainFC{
		Type:       "FeatureCollection",
		Generation: resp.Generation,
		Network:    resp.Network,
		From:       resp.From,
		To:         resp.To,
		LambdaH:    resp.LambdaH,
		LambdaF:    resp.LambdaF,
		Alpha:      ex.Alpha,
		Storm:      resp.Storm,
		Advisory:   resp.Advisory,
	}
	fc.Totals.RiskRoute = ex.RiskRoute
	fc.Totals.RiskRoute.Edges = nil
	fc.Totals.Shortest = ex.Shortest
	fc.Totals.Shortest.Edges = nil
	fc.Features = s.legFeatures(st, "riskroute", ex.RiskRoute, rrPath, nil)
	fc.Features = s.legFeatures(st, "shortest", ex.Shortest, spPath, fc.Features)
	return fc
}

// parseParams resolves lambda_h/lambda_f against the defaults, returning an
// error document and status on bad input — the form statusHandler docs use;
// lookupParams writes the error instead. A λ above its limit (lambdaLimit)
// is bad input too: its costs would overflow.
func (s *Server) parseParams(q url.Values, limits risk.Params) (risk.Params, any, int) {
	p := risk.PaperParams()
	for _, f := range []struct {
		name  string
		dst   *float64
		limit float64
	}{{"lambda_h", &p.LambdaH, limits.LambdaH}, {"lambda_f", &p.LambdaF, limits.LambdaF}} {
		raw := q.Get(f.name)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return p, errorDoc("bad %s %q (want a non-negative number)", f.name, raw), http.StatusBadRequest
		}
		if v > f.limit {
			return p, errorDoc("%s %q too large (costs overflow above %g)", f.name, raw, f.limit), http.StatusBadRequest
		}
		if v == 0 {
			// −0 passes the sign check and shares +0's cache key, so keep
			// only +0: every body then echoes the same λ for either.
			v = 0
		}
		*f.dst = v
	}
	return p, nil, http.StatusOK
}

// edgeTopEntry is one ranked edge in the /v1/edges/top report.
type edgeTopEntry struct {
	From         string  `json:"from"`
	To           string  `json:"to"`
	Miles        float64 `json:"miles"`
	BaseRisk     float64 `json:"base_risk"`
	ForecastRisk float64 `json:"forecast_risk"`
	SpanRisk     float64 `json:"span_risk"`
	Risk         float64 `json:"risk"`
}

// edgesTopHeader is the report context both shapes of /v1/edges/top carry.
type edgesTopHeader struct {
	Generation uint64  `json:"generation"`
	Network    string  `json:"network"`
	LambdaH    float64 `json:"lambda_h"`
	LambdaF    float64 `json:"lambda_f"`
	Storm      string  `json:"storm,omitempty"`
	Advisory   int     `json:"advisory,omitempty"`
	K          int     `json:"k"`
	Links      int     `json:"links"`
}

// edgesTopResponse answers /v1/edges/top.
type edgesTopResponse struct {
	edgesTopHeader
	Edges []edgeTopEntry `json:"edges"`
}

// edgesTopFC is the GeoJSON shape of the top-k report.
type edgesTopFC struct {
	Type string `json:"type"`
	edgesTopHeader
	Features []geoFeature `json:"features"`
}

// edgeTopProps is the per-edge payload of a top-k feature.
type edgeTopProps struct {
	Rank int `json:"rank"`
	edgeTopEntry
}

// edgesTopDoc serves GET /v1/edges/top?network=..&k=N: the network-wide
// riskiest-edges report, ranked by the α-independent symmetric risk charge
// (a pair with impact α pays α·risk to traverse the edge). Routed through
// statusHandler like every status endpoint, so it shares the JSON encoding
// path and echoes X-Request-Id via the traced middleware.
func (s *Server) edgesTopDoc(w http.ResponseWriter, r *http.Request) (any, int) {
	snap := s.snap.Load()
	scopeGeneration(w, snap.gen)
	q := r.URL.Query()
	name := q.Get("network")
	if name == "" {
		return errorDoc("missing network parameter"), http.StatusBadRequest
	}
	i, ok := s.nets[name]
	if !ok {
		return errorDoc("unknown network %q (GET /v1/pops lists the corpus)", name), http.StatusNotFound
	}
	st := snap.states[i]
	params, doc, status := s.parseParams(q, st.limit)
	if doc != nil {
		return doc, status
	}
	k := 10
	if raw := q.Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			return errorDoc("bad k %q (want a positive integer)", raw), http.StatusBadRequest
		}
		k = v
	}
	eng, err := s.engineAt(st, params)
	if err != nil {
		return errorDoc("engine build failed: %v", err), http.StatusInternalServerError
	}
	reports := eng.TopRiskEdges(k)
	head := edgesTopHeader{
		Generation: snap.gen, Network: st.net.Name,
		LambdaH: params.LambdaH, LambdaF: params.LambdaF,
		K: len(reports), Links: len(st.net.Links),
	}
	if snap.advisory != nil {
		head.Storm, head.Advisory = snap.advisory.Storm, snap.advisory.Number
	}
	entries := make([]edgeTopEntry, len(reports))
	for i, rep := range reports {
		entries[i] = edgeTopEntry{
			From: st.net.PoPs[rep.A].Name, To: st.net.PoPs[rep.B].Name,
			Miles: rep.Miles, BaseRisk: rep.BaseRisk, ForecastRisk: rep.ForecastRisk,
			SpanRisk: rep.SpanRisk, Risk: rep.Risk,
		}
	}
	if q.Get("format") != "geojson" {
		return edgesTopResponse{edgesTopHeader: head, Edges: entries}, http.StatusOK
	}
	fc := edgesTopFC{Type: "FeatureCollection", edgesTopHeader: head,
		Features: make([]geoFeature, len(reports))}
	for i, rep := range reports {
		fc.Features[i] = geoFeature{
			Type:       "Feature",
			Geometry:   lineGeom(st.net.PoPs[rep.A].Location, st.net.PoPs[rep.B].Location),
			Properties: edgeTopProps{Rank: i + 1, edgeTopEntry: entries[i]},
		}
	}
	return fc, http.StatusOK
}

// hazardSource is one catalog's contribution in a hazard probe response.
type hazardSource struct {
	Name      string  `json:"name"`
	Bandwidth float64 `json:"bandwidth_miles"`
	Events    int     `json:"events"`
	Density   float64 `json:"density"`
	Risk      float64 `json:"risk"`
}

// hazardForecast reports the forecast layer's state at the probed point.
type hazardForecast struct {
	Storm      string  `json:"storm"`
	Advisory   int     `json:"advisory"`
	Field      string  `json:"field"` // hurricane, tropical, or outside
	DistanceMi float64 `json:"distance_mi"`
	Risk       float64 `json:"risk"` // o_f at the point
}

// hazardProbe is what the fitted field says at a point and which
// catalog/advisory contributed, shared by both shapes of /debug/hazard.
type hazardProbe struct {
	LambdaH  float64         `json:"lambda_h"`
	LambdaF  float64         `json:"lambda_f"`
	Hist     float64         `json:"hist"`     // o_h, bit-identical to hazard.Model.RiskAt
	Forecast float64         `json:"forecast"` // o_f (0 with no advisory)
	NodeRisk float64         `json:"node_risk"`
	Renorm   float64         `json:"renorm"`
	Lost     []string        `json:"lost,omitempty"`
	Sources  []hazardSource  `json:"sources"`
	Advisory *hazardForecast `json:"advisory,omitempty"`
}

// hazardProbeResponse answers /debug/hazard.
type hazardProbeResponse struct {
	Generation uint64  `json:"generation"`
	Lat        float64 `json:"lat"`
	Lon        float64 `json:"lon"`
	hazardProbe
}

// hazardProbeProps is the Point-feature payload of a GeoJSON probe.
type hazardProbeProps struct {
	Generation uint64 `json:"generation"`
	hazardProbe
}

// hazardProbeFC is the GeoJSON shape of a probe: one Point feature.
type hazardProbeFC struct {
	Type     string       `json:"type"`
	Features []geoFeature `json:"features"`
}

// hazardProbeDoc serves GET /debug/hazard?lat=..&lon=..: a point query
// against the fitted hazard field and the active advisory, with per-catalog
// attribution. The aggregate hist figure is bit-identical to the
// hazard.Model.RiskAt value the serving world was built from.
func (s *Server) hazardProbeDoc(w http.ResponseWriter, r *http.Request) (any, int) {
	snap := s.snap.Load()
	scopeGeneration(w, snap.gen)
	q := r.URL.Query()
	var coords [2]float64
	for i, name := range []string{"lat", "lon"} {
		raw := q.Get(name)
		if raw == "" {
			return errorDoc("missing %s parameter", name), http.StatusBadRequest
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return errorDoc("bad %s %q (want a finite number)", name, raw), http.StatusBadRequest
		}
		coords[i] = v
	}
	if coords[0] < -90 || coords[0] > 90 {
		return errorDoc("lat %v out of range [-90, 90]", coords[0]), http.StatusBadRequest
	}
	if coords[1] < -180 || coords[1] > 180 {
		return errorDoc("lon %v out of range [-180, 180]", coords[1]), http.StatusBadRequest
	}
	p := geo.Point{Lat: coords[0], Lon: coords[1]}
	probe := s.model.Probe(p)
	var of float64
	if snap.advisory != nil {
		of = s.rm.RiskAt(snap.advisory, p)
	}
	params, doc, status := s.parseParams(q, risk.Params{
		LambdaH: lambdaLimit(1, []float64{probe.Risk}), LambdaF: lambdaLimit(1, []float64{of})})
	if doc != nil {
		return doc, status
	}
	s.tel.probes.Inc()

	resp := hazardProbeResponse{Generation: snap.gen, Lat: p.Lat, Lon: p.Lon,
		hazardProbe: hazardProbe{
			LambdaH: params.LambdaH,
			LambdaF: params.LambdaF,
			Hist:    probe.Risk,
			Renorm:  probe.Renorm,
			Lost:    probe.Lost,
			Sources: make([]hazardSource, len(probe.Sources)),
		}}
	for i, sp := range probe.Sources {
		resp.Sources[i] = hazardSource{
			Name: sp.Name, Bandwidth: sp.Bandwidth, Events: sp.Events,
			Density: sp.Density, Risk: sp.Risk,
		}
	}
	if adv := snap.advisory; adv != nil {
		d := geo.Distance(adv.Center, p)
		field := "outside"
		switch {
		case adv.HurricaneRadiusMi > 0 && d <= adv.HurricaneRadiusMi:
			field = "hurricane"
		case d <= adv.TropicalRadiusMi:
			field = "tropical"
		}
		resp.Forecast = of
		resp.Advisory = &hazardForecast{
			Storm: adv.Storm, Advisory: adv.Number,
			Field: field, DistanceMi: d, Risk: of,
		}
	}
	resp.NodeRisk = params.LambdaH*resp.Hist + params.LambdaF*resp.Forecast

	if q.Get("format") == "geojson" {
		return hazardProbeFC{
			Type: "FeatureCollection",
			Features: []geoFeature{{
				Type:       "Feature",
				Geometry:   pointGeom(p),
				Properties: hazardProbeProps{Generation: resp.Generation, hazardProbe: resp.hazardProbe},
			}},
		}, http.StatusOK
	}
	return resp, http.StatusOK
}
