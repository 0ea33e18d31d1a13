package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"riskroute/internal/forecast"
	"riskroute/internal/obs"
	"riskroute/internal/risk"
)

// routes builds the HTTP surface. Compute endpoints (route, ratio) sit
// behind the admission-control semaphore; cheap lookups and the health
// probes do not, so overload never blinds the probes.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/v1/readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("/v1/pops", s.instrument("pops", s.handlePoPs))
	mux.HandleFunc("/v1/risk", s.instrument("risk", s.handleRisk))
	mux.HandleFunc("/v1/route", s.instrument("route", s.admit(s.handleRoute)))
	mux.HandleFunc("/v1/ratio", s.instrument("ratio", s.admit(s.handleRatio)))
	mux.HandleFunc("/v1/edges/top", s.instrument("edges-top", s.statusHandler(s.edgesTopDoc)))
	mux.HandleFunc("/v1/advisory", s.instrument("advisory", s.handleAdvisory))
	mux.HandleFunc("/v1/ingest", s.instrument("ingest", s.statusHandler(s.ingestDoc)))
	mux.HandleFunc("/v1/generations", s.instrument("generations", s.statusHandler(s.generationsDoc)))
	mux.HandleFunc("/v1/slo", s.instrument("slo", s.statusHandler(s.sloDoc)))
	mux.Handle("/metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("/debug/hazard", s.instrument("hazard-probe", s.statusHandler(s.hazardProbeDoc)))
	mux.HandleFunc("/debug/requests", s.instrument("debug-requests", s.handleDebugRequests))
	return mux
}

// statusWriter is the one per-request state: the status code a handler
// wrote, one wall-clock pair, and the trace scope. The traced middleware
// pools one per request; instrument shares it, or makes one for an untraced
// request. start is the arrival, stamped by traced or else by instrument,
// and deadlineExceeded measures RequestTimeout from it, so queue wait
// counts; instrument stamps end on the way out, and traced reuses it
// instead of calling time.Now again.
type statusWriter struct {
	http.ResponseWriter
	status int
	start  time.Time     // arrival: stamped by traced, else by instrument
	end    time.Time     // stamped by instrument; zero when the endpoint is uninstrumented
	scope  *obs.ReqScope // nil when untraced
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// scopeOf returns the trace scope riding w, or nil when the request is
// untraced.
func scopeOf(w http.ResponseWriter) *obs.ReqScope {
	if sw, ok := w.(*statusWriter); ok {
		return sw.scope
	}
	return nil
}

// instrument wraps a handler with its per-endpoint request counter and
// latency histogram (serve.requests_total.<name>, serve.request_seconds.<name>).
func (s *Server) instrument(name string, next http.HandlerFunc) http.HandlerFunc {
	var requests *obs.Counter
	var seconds *obs.Histogram
	if s.cfg.Metrics != nil {
		requests = s.cfg.Metrics.Counter("serve.requests_total." + name)
		seconds = s.cfg.Metrics.Histogram("serve.request_seconds."+name, obs.LatencyBuckets())
	}
	return func(w http.ResponseWriter, r *http.Request) {
		// The traced middleware already wraps the response; share its status
		// recorder instead of stacking a second write indirection on it, and
		// reuse its start stamp so a traced request reads the clock twice,
		// not four times.
		sw, ok := w.(*statusWriter)
		if !ok {
			sw = &statusWriter{ResponseWriter: w, status: http.StatusOK}
		}
		if sw.start.IsZero() {
			sw.start = time.Now()
		}
		next(sw, r)
		end := time.Now()
		sw.end = end
		requests.Inc()
		seconds.Observe(end.Sub(sw.start).Seconds())
		// 429 (load shed) and 499 (client abandoned its own request) are
		// shaped by the client or the admission policy, not by a serving
		// fault — counting them in errors_total would page operators for
		// traffic weather.
		if sw.status >= 400 && sw.status != http.StatusTooManyRequests && sw.status != statusClientClosed {
			s.tel.errors.Inc()
		}
	}
}

// jsonContentType is the Content-Type of every JSON answer, one slice the
// header maps share instead of a fresh one per answer. Nothing writes to
// it, and its len equals its cap, so a Header.Add appending to it copies.
var jsonContentType = []string{"application/json"}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeBody writes a finished JSON body with status 200 in one Write: the
// headers and bytes writeJSON writes for the document the body encodes.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// writeHit answers from a stored body.
func (s *Server) writeHit(w http.ResponseWriter, body []byte) {
	s.tel.cacheHits.Inc()
	scopeCacheHit(w, true)
	writeBody(w, body)
}

// writeMiss completes an appended body (jsonbody.go), stores its cached form
// under key, writes its miss form and returns the cached form. The stored
// body gets its own backing array: every later hit shares it, so it is
// never written again.
func (s *Server) writeMiss(w http.ResponseWriter, key cacheKey, body []byte) []byte {
	hit := make([]byte, 0, len(body)+len(cachedTrue))
	hit = append(append(hit, body...), cachedTrue...)
	s.cache.keyed.Put(key, hit)
	writeBody(w, append(body, cachedFalse...))
	return hit
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorDoc(format, args...))
}

// errorDoc is writeError's document form, for statusHandler docs that
// return their error bodies instead of writing them.
func errorDoc(format string, args ...any) map[string]string {
	return map[string]string{"error": fmt.Sprintf(format, args...)}
}

// statusHandler adapts a status-document source into a handler: the shared
// JSON encoding path for every endpoint that reports subsystem state
// (/v1/ingest, /v1/generations, /v1/slo). The doc callback gets w only to
// stamp the trace scope, and returns the document and its HTTP status;
// error documents use the same {"error": ...} shape as writeError.
func (s *Server) statusHandler(doc func(w http.ResponseWriter, r *http.Request) (any, int)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, status := doc(w, r)
		s.writeJSON(w, status, v)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case !s.ready.Load():
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
	default:
		s.writeJSON(w, http.StatusOK, map[string]any{
			"status": "ready", "generation": s.Generation(),
			"boot": s.boot,
		})
	}
}

// lookupNet resolves the ?network= parameter of the request's parsed query
// against a snapshot, writing the error response on failure.
func (s *Server) lookupNet(w http.ResponseWriter, q url.Values, snap *snapshot) *netState {
	name := q.Get("network")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, "missing network parameter")
		return nil
	}
	i, ok := s.nets[name]
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown network %q (GET /v1/pops lists the corpus)", name)
		return nil
	}
	return snap.states[i]
}

// lookupParams resolves the optional lambda_h / lambda_f query parameters
// against the paper's defaults and st's limits, writing the error response
// on failure.
func (s *Server) lookupParams(w http.ResponseWriter, q url.Values, st *netState) (risk.Params, bool) {
	p, doc, status := s.parseParams(q, st.limit)
	if doc != nil {
		s.writeJSON(w, status, doc)
		return p, false
	}
	return p, true
}

// pathLeg is one priced path in a route response.
type pathLeg struct {
	Path         []string `json:"path"`
	Miles        float64  `json:"miles"`
	BitRiskMiles float64  `json:"bit_risk_miles"`
}

// routeResponse answers /v1/route. Costs are byte-identical to the batch
// `riskroute route` CLI for the same network, pair, parameters, and
// generation inputs. Explain responses encode it with writeJSON; plain ones
// are appendRouteBody's bytes of the same document.
type routeResponse struct {
	Generation       uint64  `json:"generation"`
	Network          string  `json:"network"`
	From             string  `json:"from"`
	To               string  `json:"to"`
	LambdaH          float64 `json:"lambda_h"`
	LambdaF          float64 `json:"lambda_f"`
	Storm            string  `json:"storm,omitempty"`
	Advisory         int     `json:"advisory,omitempty"`
	Shortest         pathLeg `json:"shortest"`
	RiskRoute        pathLeg `json:"riskroute"`
	RiskReduction    float64 `json:"risk_reduction"`
	DistanceIncrease float64 `json:"distance_increase"`
	Cached           bool    `json:"cached"`

	// Explain is the per-edge attribution block, present only for
	// ?explain=1 requests (which bypass the result cache).
	Explain *routeExplanation `json:"explain,omitempty"`
}

// handleRoute is the route endpoint body. A query text answered before at
// this generation is served from the raw index without parsing; any other
// text is parsed, answered from the keyed index or computed, and then filed
// under its text too, unless it asks for attribution.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if s.deadlineExceeded(w, r) {
		return
	}
	snap := s.snap.Load()
	scopeGeneration(w, snap.gen)
	raw := rawKey{gen: snap.gen, kind: kindRoute, query: r.URL.RawQuery}
	if body, ok := s.cache.raw.Get(raw); ok {
		s.writeHit(w, body)
		return
	}
	q := r.URL.Query()
	st := s.lookupNet(w, q, snap)
	if st == nil {
		return
	}
	from, to := q.Get("from"), q.Get("to")
	src, dst := st.popIndex(from), st.popIndex(to)
	if src < 0 || dst < 0 {
		s.writeError(w, http.StatusNotFound, "PoP not found in %s (%q=%d, %q=%d)",
			st.net.Name, from, src, to, dst)
		return
	}
	params, ok := s.lookupParams(w, q, st)
	if !ok {
		return
	}
	explain := wantExplain(q)
	key := cacheKey{gen: snap.gen, kind: kindRoute, network: st.net.Name,
		src: src, dst: dst, lambdaH: params.LambdaH, lambdaF: params.LambdaF}
	// Explain responses bypass the cache in both directions: a cached route
	// carries no attribution, and attribution bodies are too large to be
	// worth displacing plain routes.
	if !explain {
		if body, ok := s.cache.keyed.Get(key); ok {
			s.cache.putRaw(raw, body)
			s.writeHit(w, body)
			return
		}
		s.tel.cacheMisses.Inc()
	}
	eng, err := s.engineAt(st, params)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "engine build failed: %v", err)
		return
	}
	rr := eng.RiskRoutePair(src, dst)
	sp := eng.ShortestPair(src, dst)
	if rr.Path == nil || sp.Path == nil {
		s.writeError(w, http.StatusUnprocessableEntity,
			"no route between %s and %s (disconnected topology)", from, to)
		return
	}
	if !explain {
		s.cache.putRaw(raw, s.writeMiss(w, key, appendRouteBody(make([]byte, 0, routeBodyCap), snap, st, src, dst, params, rr, sp)))
		return
	}
	resp := &routeResponse{
		Generation: snap.gen,
		Network:    st.net.Name,
		From:       from,
		To:         to,
		LambdaH:    params.LambdaH,
		LambdaF:    params.LambdaF,
		Shortest:   pathLeg{Path: s.popNames(st, sp.Path), Miles: sp.Miles, BitRiskMiles: sp.BitRiskMiles},
		RiskRoute:  pathLeg{Path: s.popNames(st, rr.Path), Miles: rr.Miles, BitRiskMiles: rr.BitRiskMiles},
	}
	if snap.advisory != nil {
		resp.Storm = snap.advisory.Storm
		resp.Advisory = snap.advisory.Number
	}
	resp.RiskReduction, resp.DistanceIncrease = routeRatios(rr, sp)
	resp.Explain = s.buildExplanation(st, eng, src, dst, rr, sp)
	if q.Get("format") == "geojson" {
		s.writeJSON(w, http.StatusOK, s.explainGeoJSON(st, resp, resp.Explain, rr.Path, sp.Path))
		return
	}
	s.writeJSON(w, http.StatusOK, *resp)
}

func (s *Server) popNames(st *netState, path []int) []string {
	names := make([]string, len(path))
	for i, v := range path {
		names[i] = st.net.PoPs[v].Name
	}
	return names
}

// ratioResponse is the /v1/ratio document. Its bytes are
// appendRatioBody's; tests encode it with writeJSON as their oracle.
type ratioResponse struct {
	Generation       uint64  `json:"generation"`
	Network          string  `json:"network"`
	LambdaH          float64 `json:"lambda_h"`
	LambdaF          float64 `json:"lambda_f"`
	Pairs            int     `json:"pairs"`
	RiskReduction    float64 `json:"risk_reduction"`
	DistanceIncrease float64 `json:"distance_increase"`
	Cached           bool    `json:"cached"`
}

func (s *Server) handleRatio(w http.ResponseWriter, r *http.Request) {
	if s.deadlineExceeded(w, r) {
		return
	}
	snap := s.snap.Load()
	scopeGeneration(w, snap.gen)
	raw := rawKey{gen: snap.gen, kind: kindRatio, query: r.URL.RawQuery}
	if body, ok := s.cache.raw.Get(raw); ok {
		s.writeHit(w, body)
		return
	}
	q := r.URL.Query()
	st := s.lookupNet(w, q, snap)
	if st == nil {
		return
	}
	params, ok := s.lookupParams(w, q, st)
	if !ok {
		return
	}

	key := cacheKey{gen: snap.gen, kind: kindRatio, network: st.net.Name,
		src: -1, dst: -1, lambdaH: params.LambdaH, lambdaF: params.LambdaF}
	if body, ok := s.cache.keyed.Get(key); ok {
		s.cache.putRaw(raw, body)
		s.writeHit(w, body)
		return
	}
	s.tel.cacheMisses.Inc()

	eng, err := s.engineAt(st, params)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "engine build failed: %v", err)
		return
	}
	s.cache.putRaw(raw, s.writeMiss(w, key, appendRatioBody(make([]byte, 0, ratioBodyCap), snap.gen, st, params, eng.Evaluate())))
}

func (s *Server) handlePoPs(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	scopeGeneration(w, snap.gen)
	name := r.URL.Query().Get("network")
	if name == "" {
		type netInfo struct {
			Name  string `json:"name"`
			Tier  string `json:"tier"`
			PoPs  int    `json:"pops"`
			Links int    `json:"links"`
		}
		nets := make([]netInfo, len(snap.states))
		for i, st := range snap.states {
			nets[i] = netInfo{Name: st.net.Name, Tier: st.net.Tier.String(),
				PoPs: len(st.net.PoPs), Links: len(st.net.Links)}
		}
		s.writeJSON(w, http.StatusOK, map[string]any{
			"generation": snap.gen, "networks": nets,
		})
		return
	}
	i, ok := s.nets[name]
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown network %q", name)
		return
	}
	st := snap.states[i]
	type popInfo struct {
		Name     string  `json:"name"`
		Lat      float64 `json:"lat"`
		Lon      float64 `json:"lon"`
		Fraction float64 `json:"fraction"`
	}
	pops := make([]popInfo, len(st.net.PoPs))
	for i, p := range st.net.PoPs {
		pops[i] = popInfo{Name: p.Name, Lat: p.Location.Lat, Lon: p.Location.Lon,
			Fraction: st.fractions[i]}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"generation": snap.gen, "network": st.net.Name, "pops": pops,
	})
}

func (s *Server) handleRisk(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	scopeGeneration(w, snap.gen)
	q := r.URL.Query()
	st := s.lookupNet(w, q, snap)
	if st == nil {
		return
	}
	params, ok := s.lookupParams(w, q, st)
	if !ok {
		return
	}
	type popRisk struct {
		Name     string  `json:"name"`
		Hist     float64 `json:"hist"`
		Forecast float64 `json:"forecast"`
		NodeRisk float64 `json:"node_risk"`
	}
	pops := make([]popRisk, len(st.net.PoPs))
	for i, p := range st.net.PoPs {
		pr := popRisk{Name: p.Name, Hist: st.hist[i]}
		if st.forecast != nil {
			pr.Forecast = st.forecast[i]
		}
		pr.NodeRisk = params.LambdaH*pr.Hist + params.LambdaF*pr.Forecast
		pops[i] = pr
	}
	resp := map[string]any{
		"generation": snap.gen, "network": st.net.Name,
		"lambda_h": params.LambdaH, "lambda_f": params.LambdaF,
		"pops": pops,
	}
	if snap.advisory != nil {
		resp["storm"] = snap.advisory.Storm
		resp["advisory"] = snap.advisory.Number
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// advisoryInfo is the JSON shape of an applied advisory.
type advisoryInfo struct {
	Generation        uint64  `json:"generation"`
	Storm             string  `json:"storm"`
	Advisory          int     `json:"advisory"`
	Classification    string  `json:"classification"`
	CenterLat         float64 `json:"center_lat"`
	CenterLon         float64 `json:"center_lon"`
	MaxWindMPH        float64 `json:"max_wind_mph"`
	HurricaneRadiusMi float64 `json:"hurricane_radius_mi"`
	TropicalRadiusMi  float64 `json:"tropical_radius_mi"`
}

// maxAdvisoryBytes bounds an ingested bulletin. Real NHC advisories are a
// few KB; anything near the limit is hostile or corrupt.
const maxAdvisoryBytes = 1 << 20

func (s *Server) handleAdvisory(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		snap := s.snap.Load()
		if snap.advisory == nil {
			s.writeJSON(w, http.StatusOK, map[string]any{
				"generation": snap.gen, "advisory": nil,
			})
			return
		}
		s.writeJSON(w, http.StatusOK, advisoryInfoOf(snap.gen, snap.advisory))
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAdvisoryBytes))
		if err != nil {
			s.writeError(w, http.StatusRequestEntityTooLarge, "advisory body too large or unreadable: %v", err)
			return
		}
		adv, gen, err := s.ApplyAdvisory(string(body))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "advisory rejected: %v", err)
			return
		}
		s.writeJSON(w, http.StatusOK, advisoryInfoOf(gen, adv))
	default:
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// ingestDoc serves the continuous-ingestion lifecycle document. Until a
// poller is attached (the daemon was started without an advisory feed or
// journal), it answers 404 so probes can tell "no ingestion configured"
// from "ingestion stuck".
func (s *Server) ingestDoc(w http.ResponseWriter, r *http.Request) (any, int) {
	fn := s.ingestStatus.Load()
	if fn == nil {
		return map[string]string{"error": "no advisory ingestion attached (start with -advisory-feed / -journal-dir)"},
			http.StatusNotFound
	}
	return (*fn)(), http.StatusOK
}

// generationsDoc serves the swap timeline: one event per published
// generation with the parse/rebuild/swap breakdown.
func (s *Server) generationsDoc(w http.ResponseWriter, r *http.Request) (any, int) {
	return map[string]any{
		"generation": s.Generation(),
		"events":     s.timeline.Records(),
	}, http.StatusOK
}

// sloDoc serves the burn-rate engine's report.
func (s *Server) sloDoc(w http.ResponseWriter, r *http.Request) (any, int) {
	return s.slo.Snapshot(), http.StatusOK
}

// handleMetrics serves the registry in Prometheus exposition format 0.0.4.
// The SLO snapshot runs first so the burn-rate gauges a scrape reads are
// current as of that scrape, not the last /v1/slo hit.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.slo.Snapshot()
	obs.PromHandler(s.cfg.Metrics).ServeHTTP(w, r)
}

// handleDebugRequests renders the tail-sampled request ring as text, newest
// first — the daemon's net/trace-style "what went wrong recently" page.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reqs.WriteText(w)
}

func advisoryInfoOf(gen uint64, a *forecast.Advisory) advisoryInfo {
	return advisoryInfo{
		Generation:        gen,
		Storm:             a.Storm,
		Advisory:          a.Number,
		Classification:    a.Classification(),
		CenterLat:         a.Center.Lat,
		CenterLon:         a.Center.Lon,
		MaxWindMPH:        a.MaxWindMPH,
		HurricaneRadiusMi: a.HurricaneRadiusMi,
		TropicalRadiusMi:  a.TropicalRadiusMi,
	}
}
