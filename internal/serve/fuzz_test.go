package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"riskroute/internal/forecast"
)

// FuzzAdvisoryIngest throws arbitrary bytes at POST /v1/advisory — the one
// endpoint that feeds untrusted network input into the NLP parser and the
// snapshot-swap machinery. Invariants: the handler never panics, answers
// only 200 (parsed and swapped), 400 (rejected), or 413 (oversized), the
// generation counter moves forward exactly on success, never backward, and
// every body that gets 200 passes the advisory feed's gate.
func FuzzAdvisoryIngest(f *testing.F) {
	s := testServer(f)
	replay := sandyReplay(f)
	valid := replay.Advisories[0].Text()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                              // truncated
	f.Add(strings.Replace(valid, "LATITUDE", "LATITUDE JUNK", 1))            // corrupted field
	f.Add("")                                                                // empty
	f.Add("BULLETIN\nHURRICANE X ADVISORY NUMBER ONE\n")                     // non-numeric
	f.Add(strings.Replace(valid, "ADVISORY NUMBER", "ADVISORY NUMBER 0", 1)) // implausible

	f.Fuzz(func(t *testing.T, body string) {
		before := s.Generation()
		req := httptest.NewRequest(http.MethodPost, "/v1/advisory", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, req)

		after := s.Generation()
		switch rec.Code {
		case http.StatusOK:
			if after <= before {
				t.Fatalf("200 response but generation %d -> %d", before, after)
			}
			if _, err := forecast.ValidateAdvisory(body); err != nil {
				t.Fatalf("200 response for a bulletin the feed's gate rejects: %v", err)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if after < before {
				t.Fatalf("generation moved backward: %d -> %d", before, after)
			}
		default:
			t.Fatalf("status %d for fuzzed advisory (want 200, 400, or 413): %s",
				rec.Code, rec.Body.Bytes())
		}
	})
}

// FuzzRouteQuery throws arbitrary query values at GET /v1/route — the
// untrusted surface of parseParams and the PoP lookup. Invariants: the
// handler never panics, answers only 200, 400, 404, or 422 with a valid JSON
// body, and repeating the query answers the same status and bytes apart from
// "cached"; the first ask runs on an emptied cache, so a repeated plain 200
// is the raw-query index's answer to the parsed path's. A plain 200 body is byte-identical to writeJSON of its decoded
// routeResponse, and the route obeys Equations 3, 5, and 6: both legs' costs
// are finite and non-negative, RiskRoute's bit-risk miles never exceed the
// shortest path's (rr ≥ 0), and its miles are never fewer (dr ≥ 0).
func FuzzRouteQuery(f *testing.F) {
	s := testServer(f)
	net := s.bases[0].net
	a, b := net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name
	for _, seed := range [][7]string{
		// network, from, to, lambda_h, lambda_f, explain, format
		{"Sprint", a, b, "", "", "", ""},
		{"Sprint", a, b, "1e308", "", "", ""},
		{"Sprint", a, b, "", "NaN", "", ""},
		{"Sprint", a, b, "Inf", "", "", ""},
		{"Sprint", a, b, "-1", "", "", ""},
		{"Sprint", a, b, "-0", "", "", ""},
		{"Sprint", "Atlantis", b, "", "", "", ""},
		{"Sprint", a, b, "", "", "1", "geojson"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4], seed[5], seed[6])
	}

	f.Fuzz(func(t *testing.T, network, from, to, lambdaH, lambdaF, explain, format string) {
		q := url.Values{"network": {network}, "from": {from}, "to": {to},
			"lambda_h": {lambdaH}, "lambda_f": {lambdaF}, "explain": {explain}, "format": {format}}
		req := httptest.NewRequest(http.MethodGet, "/v1/route?"+q.Encode(), nil)
		rec := httptest.NewRecorder()
		s.cache.Reset()
		s.mux.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d for %s (want 200, 400, 404, or 422): %s", rec.Code, q.Encode(), rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d for %s: body is not JSON: %q", rec.Code, q.Encode(), rec.Body.Bytes())
		}
		rawHits, _ := s.cache.raw.Stats()
		again := httptest.NewRecorder()
		s.mux.ServeHTTP(again, httptest.NewRequest(http.MethodGet, "/v1/route?"+q.Encode(), nil))
		uncached := func(b []byte) string { return strings.ReplaceAll(string(b), `"cached": true`, `"cached": false`) }
		if again.Code != rec.Code || uncached(again.Body.Bytes()) != uncached(rec.Body.Bytes()) {
			t.Fatalf("repeated %s answers differently:\n%d %s\n%d %s", q.Encode(),
				rec.Code, rec.Body.Bytes(), again.Code, again.Body.Bytes())
		}
		if rec.Code != http.StatusOK || wantExplain(q) {
			return
		}
		if !bytes.HasSuffix(again.Body.Bytes(), []byte(`"cached": `+cachedTrue)) {
			t.Fatalf("repeated %s missed the cache:\n%s", q.Encode(), again.Body.Bytes())
		}
		if h, _ := s.cache.raw.Stats(); h != rawHits+1 {
			t.Fatalf("repeated %s was not answered from the raw-query index", q.Encode())
		}
		var resp routeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("route body for %s: %v", q.Encode(), err)
		}
		if want := oracleBody(s, resp).Body.Bytes(); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("route body for %s differs from writeJSON of its document:\n%s\nwant:\n%s", q.Encode(), rec.Body.Bytes(), want)
		}
		rr, sp := resp.RiskRoute, resp.Shortest
		for _, v := range []float64{rr.BitRiskMiles, rr.Miles, sp.BitRiskMiles, sp.Miles} {
			if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
				t.Fatalf("route for %s: cost %v not finite and non-negative: %+v", q.Encode(), v, resp)
			}
		}
		if rr.BitRiskMiles > sp.BitRiskMiles*(1+1e-12) {
			t.Fatalf("route for %s: riskroute costs %v bit-risk miles, shortest %v", q.Encode(), rr.BitRiskMiles, sp.BitRiskMiles)
		}
		if rr.Miles < sp.Miles*(1-1e-12) {
			t.Fatalf("route for %s: riskroute is %v miles, shortest %v", q.Encode(), rr.Miles, sp.Miles)
		}
	})
}
