package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"riskroute/internal/stats"
)

// asHit returns the body a cache hit must write for a miss body: the same
// bytes with "cached": true.
func asHit(tb testing.TB, miss []byte) string {
	tb.Helper()
	head, ok := bytes.CutSuffix(miss, []byte(cachedFalse))
	if !ok || !bytes.HasSuffix(head, []byte(`"cached": `)) {
		tb.Fatalf("not a miss body:\n%s", miss)
	}
	return string(head) + cachedTrue
}

// oracleBody is the response writeJSON gives for v: the reflection
// encoding the appended route and ratio bodies must reproduce byte for byte.
func oracleBody(s *Server, v any) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, v)
	return rec
}

// TestAppendedBodiesMatchWriteJSON is the differential test of the route
// and ratio appenders. Over all 23 built-in networks, at generation 1,
// after a Sandy advisory and after a revert, each miss body must equal
// writeJSON of the routeResponse or ratioResponse built from the same
// engine answers, and each hit must equal its miss with only "cached"
// flipped. The λ values cover the default, both exponent forms, and a
// custom λ_f.
func TestAppendedBodiesMatchWriteJSON(t *testing.T) {
	s, err := New(Config{Blocks: 4000, EventScale: 0.03, Seed: 1, RequestIDSeed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	lambdas := [][]string{
		nil,
		{"lambda_h", "1e-9"},
		{"lambda_h", "1e30"},
		{"lambda_h", "3e4", "lambda_f", "2500"},
	}
	check := func(path string, want *httptest.ResponseRecorder) {
		t.Helper()
		s.cache.Reset()
		var recs [2]*httptest.ResponseRecorder
		for i := range recs {
			recs[i] = httptest.NewRecorder()
			s.mux.ServeHTTP(recs[i], httptest.NewRequest(http.MethodGet, path, nil))
		}
		miss, hit := recs[0], recs[1]
		for _, rec := range recs {
			if rec.Code != want.Code || rec.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Fatalf("GET %s: status %d %q, want %d %q: %s", path, rec.Code,
					rec.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"), rec.Body.Bytes())
			}
		}
		if !bytes.Equal(miss.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("GET %s: miss body differs from writeJSON:\n%s\nwant:\n%s", path, miss.Body.Bytes(), want.Body.Bytes())
		}
		if got := hit.Body.String(); got != asHit(t, miss.Body.Bytes()) {
			t.Fatalf("GET %s: hit body is not the miss body with \"cached\": true:\n%s", path, got)
		}
	}

	replay := sandyReplay(t)
	sandy := replay.Advisories[len(replay.Advisories)/2]
	var routes, ratios int
	// Three worlds: generation 1 (no storm), the Sandy advisory, and the
	// Sandy world republished by a revert, whose snapshot copies the
	// quoted storm instead of building it.
	for pass := 0; pass < 3; pass++ {
		switch pass {
		case 1:
			if _, _, err := s.ApplyAdvisory(sandy.Text()); err != nil {
				t.Fatalf("ApplyAdvisory: %v", err)
			}
		case 2:
			gen, err := s.ApplyParsed(replay.Advisories[0], 0)
			if err == nil {
				_, err = s.RevertAdvisory(gen)
			}
			if err != nil {
				t.Fatalf("apply and revert: %v", err)
			}
		}
		snap := s.snap.Load()
		for ni, st := range snap.states {
			n := len(st.net.PoPs)
			pairs := [][2]int{{0, n - 1}, {n - 1, 0}, {n / 2, n / 2}}
			for k := 0; k < 4; k++ {
				h := stats.SplitMix64(uint64(ni*8 + k))
				pairs = append(pairs, [2]int{int(h % uint64(n)), int((h >> 32) % uint64(n))})
			}
			for _, lam := range lambdas {
				q := url.Values{"network": {st.net.Name}}
				for i := 0; i+1 < len(lam); i += 2 {
					q.Set(lam[i], lam[i+1])
				}
				params, doc, _ := s.parseParams(q, st.limit)
				if doc != nil {
					t.Fatalf("%s %v rejected: %v", st.net.Name, lam, doc)
				}
				eng, err := s.engineAt(st, params)
				if err != nil {
					t.Fatalf("engineAt: %v", err)
				}
				for _, pr := range pairs {
					src, dst := pr[0], pr[1]
					q.Set("from", st.net.PoPs[src].Name)
					q.Set("to", st.net.PoPs[dst].Name)
					rr, sp := eng.RiskRoutePair(src, dst), eng.ShortestPair(src, dst)
					if rr.Path == nil || sp.Path == nil {
						t.Fatalf("%s: no route %d→%d", st.net.Name, src, dst)
					}
					// The routeResponse the reflection path built before the
					// appender, field by field.
					resp := routeResponse{
						Generation: snap.gen,
						Network:    st.net.Name,
						From:       st.net.PoPs[src].Name,
						To:         st.net.PoPs[dst].Name,
						LambdaH:    params.LambdaH,
						LambdaF:    params.LambdaF,
						Shortest:   pathLeg{Path: s.popNames(st, sp.Path), Miles: sp.Miles, BitRiskMiles: sp.BitRiskMiles},
						RiskRoute:  pathLeg{Path: s.popNames(st, rr.Path), Miles: rr.Miles, BitRiskMiles: rr.BitRiskMiles},
					}
					if snap.advisory != nil {
						resp.Storm = snap.advisory.Storm
						resp.Advisory = snap.advisory.Number
					}
					if sp.BitRiskMiles > 0 {
						resp.RiskReduction = 1 - rr.BitRiskMiles/sp.BitRiskMiles
					}
					if sp.Miles > 0 {
						resp.DistanceIncrease = rr.Miles/sp.Miles - 1
					}
					check("/v1/route?"+q.Encode(), oracleBody(s, resp))
					routes++
				}
				if lam != nil && lam[1] != "1e30" {
					continue // a ratio sweeps every pair: price two λ, not four
				}
				q.Del("from")
				q.Del("to")
				r := eng.Evaluate()
				check("/v1/ratio?"+q.Encode(), oracleBody(s, ratioResponse{
					Generation:       snap.gen,
					Network:          st.net.Name,
					LambdaH:          params.LambdaH,
					LambdaF:          params.LambdaF,
					Pairs:            r.Pairs,
					RiskReduction:    r.RiskReduction,
					DistanceIncrease: r.DistanceIncrease,
				}))
				ratios++
			}
		}
	}
	if len(s.bases) != 23 {
		t.Fatalf("served %d networks, want the 23 built-ins", len(s.bases))
	}
	t.Logf("%d route and %d ratio queries, each a miss and a hit", routes, ratios)
}

// FuzzJSONFloat holds appendJSONFloat to encoding/json's float64 encoding
// for every finite bit pattern. The seeds sit on both sides of each 'e'
// format cutoff and at the extremes.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1),
		1e-6, math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0),
		5e-324, math.MaxFloat64, -1.5e-7,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", v, err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %s, json.Marshal = %s", v, got, want)
		}
	})
}
