package serve

import (
	"encoding/json"
	"math"
	"strconv"

	"riskroute/internal/core"
	"riskroute/internal/risk"
)

// The /v1/route and /v1/ratio bodies are appended directly rather than
// encoded by writeJSON, whose reflection and indent pass were the largest
// single cost of a route answer and most of a cache hit's. Each appender
// emits exactly the bytes writeJSON writes for routeResponse and
// ratioResponse (a json.Encoder with two-space indentation); the
// differential test and the fuzz targets hold them to it. Strings arrive
// already quoted by encoding/json (netBase and snapshot quote their names
// once), so escaping is encoding/json's by construction.
//
// An appended body stops after `"cached": `. Completing it twice gives the
// miss body and the body the result cache stores for every later hit.
const (
	cachedFalse = "false\n}\n"
	cachedTrue  = "true\n}\n"

	// routeBodyCap and ratioBodyCap size a body's first allocation. Over
	// every pair of the built-in corpus, route bodies run 848 bytes at the
	// median and 1,385 at the 99th percentile.
	routeBodyCap = 1536
	ratioBodyCap = 256
)

// quoteJSON returns s quoted exactly as encoding/json quotes a string:
// HTML-safe escapes, U+2028/U+2029 escaped, invalid UTF-8 replaced.
func quoteJSON(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// appendJSONFloat appends a finite f as encoding/json encodes a float64: the
// shortest round-trip digits, in 'f' format unless 0 < |f| < 1e-6 or
// |f| ≥ 1e21, whose 'e' format drops a leading exponent zero (e-07 → e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// routeRatios is one route's Eq. 5 and 6 terms against the shortest path:
// its fractional risk reduction and distance increase, each 0 when the
// shortest path's cost is 0.
func routeRatios(rr, sp core.PairResult) (reduction, increase float64) {
	if sp.BitRiskMiles > 0 {
		reduction = 1 - rr.BitRiskMiles/sp.BitRiskMiles
	}
	if sp.Miles > 0 {
		increase = rr.Miles/sp.Miles - 1
	}
	return reduction, increase
}

// appendRouteBody appends the routeResponse body of one answered src→dst
// pair, up to the "cached" value. Both legs must carry a path.
func appendRouteBody(b []byte, snap *snapshot, st *netState, src, dst int, p risk.Params, rr, sp core.PairResult) []byte {
	b = append(b, "{\n  \"generation\": "...)
	b = strconv.AppendUint(b, snap.gen, 10)
	b = append(b, ",\n  \"network\": "...)
	b = append(b, st.jsonName...)
	b = append(b, ",\n  \"from\": "...)
	b = append(b, st.jsonPoPs[src]...)
	b = append(b, ",\n  \"to\": "...)
	b = append(b, st.jsonPoPs[dst]...)
	b = appendLambdas(b, p)
	if snap.jsonStorm != nil {
		b = append(b, ",\n  \"storm\": "...)
		b = append(b, snap.jsonStorm...)
	}
	if snap.advisory != nil && snap.advisory.Number != 0 {
		b = append(b, ",\n  \"advisory\": "...)
		b = strconv.AppendInt(b, int64(snap.advisory.Number), 10)
	}
	b = appendLeg(append(b, ",\n  \"shortest\": "...), st, sp)
	b = appendLeg(append(b, ",\n  \"riskroute\": "...), st, rr)
	reduction, increase := routeRatios(rr, sp)
	return appendRatios(b, reduction, increase)
}

// appendLeg appends one pathLeg object. A routed path is never empty (it
// holds at least its source), so the array is never encoding/json's "[]".
func appendLeg(b []byte, st *netState, leg core.PairResult) []byte {
	b = append(b, "{\n    \"path\": ["...)
	for i, v := range leg.Path {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n      "...)
		b = append(b, st.jsonPoPs[v]...)
	}
	b = append(b, "\n    ],\n    \"miles\": "...)
	b = appendJSONFloat(b, leg.Miles)
	b = append(b, ",\n    \"bit_risk_miles\": "...)
	b = appendJSONFloat(b, leg.BitRiskMiles)
	return append(b, "\n  }"...)
}

// appendRatioBody appends the ratioResponse body of one network's Evaluate
// sweep, up to the "cached" value.
func appendRatioBody(b []byte, gen uint64, st *netState, p risk.Params, r core.Ratios) []byte {
	b = append(b, "{\n  \"generation\": "...)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, ",\n  \"network\": "...)
	b = append(b, st.jsonName...)
	b = appendLambdas(b, p)
	b = append(b, ",\n  \"pairs\": "...)
	b = strconv.AppendInt(b, int64(r.Pairs), 10)
	return appendRatios(b, r.RiskReduction, r.DistanceIncrease)
}

// appendLambdas appends the lambda_h and lambda_f fields both bodies echo.
func appendLambdas(b []byte, p risk.Params) []byte {
	b = append(b, ",\n  \"lambda_h\": "...)
	b = appendJSONFloat(b, p.LambdaH)
	b = append(b, ",\n  \"lambda_f\": "...)
	return appendJSONFloat(b, p.LambdaF)
}

// appendRatios appends the risk_reduction and distance_increase fields both
// bodies end with, and the "cached" key after them.
func appendRatios(b []byte, reduction, increase float64) []byte {
	b = append(b, ",\n  \"risk_reduction\": "...)
	b = appendJSONFloat(b, reduction)
	b = append(b, ",\n  \"distance_increase\": "...)
	b = appendJSONFloat(b, increase)
	return append(b, ",\n  \"cached\": "...)
}
