// Package risk implements the paper's central metric: bit-risk miles
// (Definition 1 and Equation 1). For a routing path p = {p1..pK} between
// PoPs i and j,
//
//	r_ij(p) = Σ_{x=2..K} [ d(p_x, p_{x-1}) + α_ij·(λ_h·o_h(p_x) + λ_f·o_f(p_x)) ]
//
// where d is line-of-sight miles, α_ij = c_i + c_j is the outage impact of
// the endpoint pair, o_h is historical outage risk, o_f is
// immediate/forecasted outage risk, and λ_h, λ_f are the operator's
// risk-averseness knobs.
//
// # Symmetric edge-risk formulation
//
// Equation 1 charges the risk of the node being entered (every path node
// except the source). Routing here instead charges each traversed edge
// (u, v) the symmetric amount α·(ρ(u) + ρ(v))/2, with ρ(v) = λ_h·o_h(v) +
// λ_f·o_f(v). For a fixed endpoint pair the two formulations differ by the
// constant α·(ρ(p_1) − ρ(p_K))/2 — independent of the route taken — so the
// arg-min path of Equation 3 is identical, while the weighted graph stays
// symmetric (enabling shared all-pairs tables). PathCost reports the
// paper's entered-node value; PathCostSymmetric the symmetric one; a
// property test pins their constant-offset relationship.
package risk

import (
	"fmt"
	"math"

	"riskroute/internal/graph"
	"riskroute/internal/topology"
)

// Params are the bit-risk tuning parameters. The paper's experiments use
// λ_h = 10⁵ (10⁶ in the right half of Table 2) and λ_f = 10³.
type Params struct {
	LambdaH float64
	LambdaF float64
}

// PaperParams returns the paper's default tuning parameters.
func PaperParams() Params { return Params{LambdaH: 1e5, LambdaF: 1e3} }

// Context binds one network to everything the bit-risk metric needs: the
// per-PoP historical risk o_h, the per-PoP forecast risk o_f (nil when no
// disaster forecast is active), the per-PoP population fractions c_i, and
// the tuning parameters.
type Context struct {
	Net       *topology.Network
	Hist      []float64 // o_h, index-aligned with Net.PoPs
	Forecast  []float64 // o_f, nil or index-aligned
	Fractions []float64 // c_i, index-aligned
	Params    Params
	// Impact optionally overrides the default α_ij = c_i + c_j with an
	// arbitrary symmetric pairwise impact — e.g. a gravity-model traffic
	// matrix (population.GravityImpactFunc), SLA tiers, or critical peering
	// relationships, as Section 5 of the paper suggests. Values must be
	// non-negative and symmetric; Fractions remain required (they seed the
	// engine's quantization range when Impact is nil).
	Impact func(i, j int) float64

	// linkHist carries optional per-span historical risk (set via
	// SetLinkHist): the paper attaches risk to PoPs only, but fiber spans
	// cross risky terrain too — a Gulf-hugging link is exposed even when
	// both endpoints are inland. Keyed by normalized (min,max) endpoints.
	linkHist map[[2]int]float64
}

// SetLinkHist attaches per-link historical risk, index-aligned with
// Net.Links (hazard.LinkRisks produces such a slice). Each traversed link
// then contributes α·λ_h·linkRisk on top of the endpoint terms, in both the
// entered-node and symmetric cost forms (the constant-offset equivalence is
// unaffected because the span term is identical in both). Passing nil
// clears span risk. It panics on a length mismatch or negative values.
func (c *Context) SetLinkHist(vals []float64) {
	if vals == nil {
		c.linkHist = nil
		return
	}
	if len(vals) != len(c.Net.Links) {
		panic(fmt.Sprintf("risk: %d link risks for %d links", len(vals), len(c.Net.Links)))
	}
	m := make(map[[2]int]float64, len(vals))
	for i, l := range c.Net.Links {
		if vals[i] < 0 {
			panic("risk: negative link risk")
		}
		m[linkKey(l.A, l.B)] = vals[i]
	}
	c.linkHist = m
}

func linkKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// LinkRisk returns the λ_h-scaled span risk of the link between u and v
// (zero when span risk is not configured or the pair is not linked).
func (c *Context) LinkRisk(u, v int) float64 {
	if c.linkHist == nil {
		return 0
	}
	return c.Params.LambdaH * c.linkHist[linkKey(u, v)]
}

// Validate checks the context's slices are index-aligned with the network,
// that every historical risk, forecast risk and population fraction is
// finite and non-negative, and that parameters are non-negative. A negative
// fraction would make some α_ij negative, and a search over negative edge
// weights never settles; with no negative risk, no node risk ρ is negative
// either.
func (c *Context) Validate() error {
	n := len(c.Net.PoPs)
	if len(c.Hist) != n {
		return fmt.Errorf("risk: Hist has %d entries for %d PoPs", len(c.Hist), n)
	}
	if c.Forecast != nil && len(c.Forecast) != n {
		return fmt.Errorf("risk: Forecast has %d entries for %d PoPs", len(c.Forecast), n)
	}
	if len(c.Fractions) != n {
		return fmt.Errorf("risk: Fractions has %d entries for %d PoPs", len(c.Fractions), n)
	}
	if c.Params.LambdaH < 0 || c.Params.LambdaF < 0 {
		return fmt.Errorf("risk: negative tuning parameters %+v", c.Params)
	}
	for i := range n {
		if h := c.Hist[i]; !(h >= 0) || math.IsInf(h, 1) {
			return fmt.Errorf("risk: invalid historical risk %v at PoP %d", h, i)
		}
		if c.Forecast != nil {
			if f := c.Forecast[i]; !(f >= 0) || math.IsInf(f, 1) {
				return fmt.Errorf("risk: invalid forecast risk %v at PoP %d", f, i)
			}
		}
		if f := c.Fractions[i]; !(f >= 0) || math.IsInf(f, 1) {
			return fmt.Errorf("risk: invalid population fraction %v at PoP %d", f, i)
		}
	}
	return nil
}

// NodeRisk returns ρ(v) = λ_h·o_h(v) + λ_f·o_f(v), the λ-scaled outage risk
// of PoP v.
func (c *Context) NodeRisk(v int) float64 {
	r := c.Params.LambdaH * c.Hist[v]
	if c.Forecast != nil {
		r += c.Params.LambdaF * c.Forecast[v]
	}
	return r
}

// Alpha returns the outage impact of an endpoint pair: the Impact override
// when set, otherwise the paper's default α_ij = c_i + c_j.
func (c *Context) Alpha(i, j int) float64 {
	if c.Impact != nil {
		return c.Impact(i, j)
	}
	return c.Fractions[i] + c.Fractions[j]
}

// EdgeRisk returns r_e, the α-independent risk content of the edge (u, v)
// under the symmetric formulation: (ρ(u)+ρ(v))/2 plus any span risk. It is
// the one definition of the bracket every symmetric weight scales by α.
func (c *Context) EdgeRisk(u, v int) float64 {
	return (c.NodeRisk(u)+c.NodeRisk(v))/2 + c.LinkRisk(u, v)
}

// EdgeWeight returns the symmetric bit-risk weight of traversing the edge
// (u, v) under endpoint impact alpha: miles + α·EdgeRisk. The weight is
// affine in α, which is what lets one adjacency serve every α.
func (c *Context) EdgeWeight(u, v int, alpha float64) float64 {
	d := c.Net.LinkMiles(topology.Link{A: u, B: v})
	return d + alpha*c.EdgeRisk(u, v)
}

// WeightedGraph builds the risk-weighted routing graph for endpoint impact
// alpha: edge (u, v) carries d(u,v) + α·(ρ(u)+ρ(v))/2.
func (c *Context) WeightedGraph(alpha float64) *graph.Graph {
	g := graph.New(len(c.Net.PoPs))
	for _, l := range c.Net.Links {
		g.AddEdge(l.A, l.B, c.EdgeWeight(l.A, l.B, alpha))
	}
	return g
}

// PathMiles returns the geographic length of a path in miles.
func (c *Context) PathMiles(path []int) float64 {
	total := 0.0
	for x := 1; x < len(path); x++ {
		total += c.Net.LinkMiles(topology.Link{A: path[x-1], B: path[x]})
	}
	return total
}

// PathRiskSum returns Σ over traversed edges of (ρ(u)+ρ(v))/2 plus any
// span risk — the α-independent risk content of a path under the symmetric
// formulation.
func (c *Context) PathRiskSum(path []int) float64 {
	total := 0.0
	for x := 1; x < len(path); x++ {
		total += c.EdgeRisk(path[x-1], path[x])
	}
	return total
}

// PathCost evaluates Equation 1 exactly: distance plus impact-scaled risk of
// every node entered (all path nodes except the first). The path's
// endpoints need not be i and j; alpha is taken from the pair (i, j) given.
func (c *Context) PathCost(path []int, i, j int) float64 {
	alpha := c.Alpha(i, j)
	total := 0.0
	for x := 1; x < len(path); x++ {
		total += c.Net.LinkMiles(topology.Link{A: path[x-1], B: path[x]})
		total += alpha * (c.NodeRisk(path[x]) + c.LinkRisk(path[x-1], path[x]))
	}
	return total
}

// PathCostSymmetric evaluates the symmetric-edge variant used for routing:
// distance plus α·(ρ(u)+ρ(v))/2 per traversed edge. It differs from
// PathCost by α·(ρ(first) − ρ(last))/2, a route-independent constant for a
// fixed endpoint pair.
func (c *Context) PathCostSymmetric(path []int, i, j int) float64 {
	if len(path) < 2 {
		return 0
	}
	return c.PathMiles(path) + c.Alpha(i, j)*c.PathRiskSum(path)
}
