package core

import (
	"math"
	"sort"

	"riskroute/internal/topology"
)

// EdgeAttribution is one traversed edge's share of a route's Equation 1
// cost, decomposed by layer. The metric charges the risk of the node being
// *entered*, so the edge (From, To) carries the distance of the hop plus
// α times the risk of To plus any fiber-span risk of the link itself:
//
//	Cost = Miles + RiskCost
//	RiskCost = α·((BaseRisk + ForecastRisk) + SpanRisk)
//
// BaseRisk is the λ_h-scaled historical (base climatology) risk of the
// entered node, ForecastRisk the λ_f-scaled advisory-layer risk, and
// SpanRisk the λ_h-scaled fiber-span hazard of the link (zero unless span
// risk is configured). All three are α-independent; RiskCost applies the
// pair's impact scaling.
type EdgeAttribution struct {
	From         int     `json:"from"`
	To           int     `json:"to"`
	Miles        float64 `json:"miles"`
	BaseRisk     float64 `json:"base_risk"`
	ForecastRisk float64 `json:"forecast_risk"`
	SpanRisk     float64 `json:"span_risk"`
	RiskCost     float64 `json:"risk_cost"`
	Cost         float64 `json:"cost"`
}

// Explanation decomposes one priced path edge-by-edge.
//
// # Bit-identity invariant
//
// Cost is computed by replaying risk.Context.PathCost's exact operation
// order — per edge, in path order: total += Miles, then total += RiskCost,
// where RiskCost = α·((λ_h·o_h(v) + λ_f·o_f(v)) + span(u,v)) with the inner
// additions in that exact association. Floating-point addition is not
// associative, so this replay (and only this replay) makes Cost equal
// PathCost — and therefore PairResult.BitRiskMiles — bit for bit.
// Reconcile re-runs the replay over the stored edges; tests pin
// Reconcile() == Cost == RiskRoutePair(i,j).BitRiskMiles bitwise.
//
// The per-layer totals (BaseRisk, ForecastRisk, SpanRisk, RiskCost, Miles)
// are plain in-order sums of the per-edge parts — deterministic, but only
// Cost and Miles carry a bitwise identity to the engine's own figures
// (Miles replays PathMiles's order exactly).
type Explanation struct {
	From  int               `json:"from"`
	To    int               `json:"to"`
	Alpha float64           `json:"alpha"`
	Path  []int             `json:"path"`
	Edges []EdgeAttribution `json:"edges"`

	Miles        float64 `json:"miles"`
	BaseRisk     float64 `json:"base_risk"`
	ForecastRisk float64 `json:"forecast_risk"`
	SpanRisk     float64 `json:"span_risk"`
	RiskCost     float64 `json:"risk_cost"`
	Cost         float64 `json:"cost"`
}

// Reconcile replays the cost accumulation over the stored edges in
// PathCost's operation order and returns the total. By construction it
// equals Cost bit-identically; callers use it to verify an explanation
// still sums to the route cost it claims to decompose.
func (ex *Explanation) Reconcile() float64 {
	total := 0.0
	for _, ed := range ex.Edges {
		total += ed.Miles
		total += ed.RiskCost
	}
	return total
}

// ExplainPath decomposes path, priced for the endpoint pair (i, j) at the
// pair's α as PathCost prices it; the path's endpoints need not be i and j.
// Explaining RiskRoutePair(i, j).Path gives a Cost bit-identical to its
// BitRiskMiles. A nil path (disconnected pair) explains to infinite cost
// with no edges, mirroring PairResult.
func (e *Engine) ExplainPath(path []int, i, j int) Explanation {
	alpha := e.Ctx.Alpha(i, j)
	ex := Explanation{From: i, To: j, Alpha: alpha, Path: path}
	if path == nil {
		ex.Miles = math.Inf(1)
		ex.Cost = math.Inf(1)
		return ex
	}
	if len(path) < 2 {
		return ex
	}
	c := e.Ctx
	ex.Edges = make([]EdgeAttribution, 0, len(path)-1)
	total := 0.0
	miles := 0.0
	for x := 1; x < len(path); x++ {
		u, v := path[x-1], path[x]
		d := c.Net.LinkMiles(topology.Link{A: u, B: v})
		// base + fc reproduces NodeRisk(v)'s accumulation: r := λ_h·o_h;
		// r += λ_f·o_f (adding 0.0 when no forecast layer is active is the
		// identity for the non-negative risks involved).
		base := c.Params.LambdaH * c.Hist[v]
		fc := 0.0
		if c.Forecast != nil {
			fc = c.Params.LambdaF * c.Forecast[v]
		}
		span := c.LinkRisk(u, v)
		riskCost := alpha * ((base + fc) + span)
		ex.Edges = append(ex.Edges, EdgeAttribution{
			From: u, To: v, Miles: d,
			BaseRisk: base, ForecastRisk: fc, SpanRisk: span,
			RiskCost: riskCost, Cost: d + riskCost,
		})
		// PathCost's exact order: distance, then the α-scaled risk term.
		total += d
		total += riskCost
		miles += d
		ex.BaseRisk += base
		ex.ForecastRisk += fc
		ex.SpanRisk += span
		ex.RiskCost += riskCost
	}
	ex.Miles = miles
	ex.Cost = total
	return ex
}

// EdgeReport is one physical link's standing risk content in the network-
// wide top-k report. Risk is the symmetric per-α-unit charge the routing
// graph applies to the edge — (ρ(A)+ρ(B))/2 + span — so a pair with impact
// α pays exactly α·Risk on top of Miles to traverse it (risk.EdgeWeight).
// BaseRisk/ForecastRisk/SpanRisk decompose Risk by layer (the endpoint
// terms are means of the two endpoints').
type EdgeReport struct {
	A            int     `json:"a"`
	B            int     `json:"b"`
	Miles        float64 `json:"miles"`
	BaseRisk     float64 `json:"base_risk"`
	ForecastRisk float64 `json:"forecast_risk"`
	SpanRisk     float64 `json:"span_risk"`
	Risk         float64 `json:"risk"`
}

// TopRiskEdges ranks every link of the engine's network by its standing
// risk content (EdgeReport.Risk, the α-independent symmetric charge) and
// returns the k riskiest, descending; k <= 0 or k > #links returns all.
// Ties break on (A, B) ascending, so the report is deterministic. Endpoints
// are normalized A < B.
func (e *Engine) TopRiskEdges(k int) []EdgeReport {
	c := e.Ctx
	out := make([]EdgeReport, len(c.Net.Links))
	for li, l := range c.Net.Links {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		baseA := c.Params.LambdaH * c.Hist[a]
		baseB := c.Params.LambdaH * c.Hist[b]
		fcA, fcB := 0.0, 0.0
		if c.Forecast != nil {
			fcA = c.Params.LambdaF * c.Forecast[a]
			fcB = c.Params.LambdaF * c.Forecast[b]
		}
		span := c.LinkRisk(a, b)
		out[li] = EdgeReport{
			A: a, B: b,
			Miles:        c.Net.LinkMiles(l),
			BaseRisk:     (baseA + baseB) / 2,
			ForecastRisk: (fcA + fcB) / 2,
			SpanRisk:     span,
			Risk:         c.EdgeRisk(a, b),
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Risk != out[j].Risk {
			return out[i].Risk > out[j].Risk
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}
