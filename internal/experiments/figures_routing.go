package experiments

import (
	"fmt"

	"riskroute/internal/core"
	"riskroute/internal/datasets"
	"riskroute/internal/interdomain"
	"riskroute/internal/report"
	"riskroute/internal/risk"
	"riskroute/internal/topology"
)

// Figure7Route is one plotted route of Figure 7.
type Figure7Route struct {
	LambdaH      float64
	Shortest     []string // PoP names along the geographic shortest path
	RiskRoute    []string // PoP names along the RiskRoute path
	ShortestCost core.PairResult
	RiskCost     core.PairResult
}

// Figure7Result reproduces Figure 7: Level3 routing between Houston, TX and
// Boston, MA under increasing risk-averseness.
type Figure7Result struct {
	Network string
	From    string
	To      string
	Routes  []Figure7Route
}

// Figure7 routes Houston→Boston on Level3 at λ_h ∈ {10⁴, 10⁵} with no
// forecast, as in the paper.
func (l *Lab) Figure7() (*Figure7Result, error) {
	defer l.track("figure7")()
	n := l.NetworkByName("Level3")
	if n == nil {
		return nil, fmt.Errorf("experiments: Level3 missing")
	}
	from := n.PoPIndex("Houston")
	to := n.PoPIndex("Boston")
	if from == -1 || to == -1 {
		return nil, fmt.Errorf("experiments: Level3 lacks Houston/Boston PoPs")
	}
	out := &Figure7Result{Network: n.Name, From: "Houston", To: "Boston"}
	for _, lh := range []float64{1e4, 1e5} {
		e, err := l.EngineFor(n, risk.Params{LambdaH: lh}, nil)
		if err != nil {
			return nil, err
		}
		rr := e.RiskRoutePair(from, to)
		sp := e.ShortestPair(from, to)
		out.Routes = append(out.Routes, Figure7Route{
			LambdaH:      lh,
			Shortest:     popNames(n, sp.Path),
			RiskRoute:    popNames(n, rr.Path),
			ShortestCost: sp,
			RiskCost:     rr,
		})
	}
	return out, nil
}

func popNames(n *topology.Network, path []int) []string {
	out := make([]string, len(path))
	for i, v := range path {
		out[i] = n.PoPs[v].Name
	}
	return out
}

// Figure8Result reproduces Figure 8: the interdomain distance-increase vs
// risk-reduction scatter for the 16 regional networks at λ_h = 10⁵.
type Figure8Result struct {
	Evaluations []RegionalEvaluation
	Plot        string // ASCII scatter
}

// Figure8 evaluates every regional network across the peering mesh.
func (l *Lab) Figure8() (*Figure8Result, error) {
	defer l.track("figure8")()
	evals, err := l.evaluateRegionals(risk.Params{LambdaH: 1e5})
	if err != nil {
		return nil, err
	}
	pts := make([]report.ScatterPoint, len(evals))
	for i, e := range evals {
		pts[i] = report.ScatterPoint{Label: e.Network, X: e.DistanceIncrease, Y: e.RiskReduction}
	}
	return &Figure8Result{
		Evaluations: evals,
		Plot:        report.Scatter(pts, 20, 60, "distance increase ratio", "risk reduction ratio"),
	}, nil
}

// SuggestedLink is one provisioning recommendation of Figures 9/10.
type SuggestedLink struct {
	From, To string
	// Fraction is the network's total bit-risk miles after this (and all
	// previous) additions, relative to the original network.
	Fraction float64
}

// Figure9Result reproduces Figure 9: the ten best additional links for a
// network, found greedily by Equation 4.
type Figure9Result struct {
	Network string
	Links   []SuggestedLink
	// CandidateRule records the loosest bit-mile reduction threshold used.
	// The paper's rule is 0.5; our synthetic maps are denser than the
	// Topology Zoo originals, so the rule relaxes stepwise until the
	// candidate set is non-empty (EXPERIMENTS.md discusses this adaptation).
	CandidateRule float64
}

// Figure9 computes the ten best additional links for the named network
// (the paper shows Level3, AT&T, and Tinet).
func (l *Lab) Figure9(network string, k int) (*Figure9Result, error) {
	defer l.track("figure9")()
	n := l.NetworkByName(network)
	if n == nil {
		return nil, fmt.Errorf("experiments: unknown network %q", network)
	}
	if k <= 0 {
		k = 10
	}
	adds, rule, err := l.greedyLinks(n, k)
	if err != nil {
		return nil, err
	}
	out := &Figure9Result{Network: network, CandidateRule: rule}
	for _, a := range adds {
		out.Links = append(out.Links, SuggestedLink{
			From:     n.PoPs[a.Link.A].Name,
			To:       n.PoPs[a.Link.B].Name,
			Fraction: a.Fraction,
		})
	}
	return out, nil
}

// candidateRules is the provisioning experiments' E_C ladder. The paper's
// synthetic-map candidate sets are small for the sparser backbones, so
// without relaxation the sweep would stop after one or two additions.
var candidateRules = []float64{0.5, 0.35, 0.25, 0.15}

// greedyLinks runs the greedy Equation 4 sweep for n at λ_h = 10⁵ under
// candidateRules and returns the additions with the loosest rule used.
func (l *Lab) greedyLinks(n *topology.Network, k int) ([]core.Addition, float64, error) {
	e, err := l.EngineFor(n, risk.Params{LambdaH: 1e5}, nil)
	if err != nil {
		return nil, 0, err
	}
	adds, err := e.GreedyAdditionalLinks(k, candidateRules...)
	if err != nil {
		return nil, 0, err
	}
	return adds, adds[len(adds)-1].Rule, nil // a step's rule never loosens back
}

// Figure10Result reproduces Figure 10: total bit-risk miles decay as links
// are added greedily to each Tier-1 network.
type Figure10Result struct {
	// Fractions[network] holds the fraction of the original bit-risk miles
	// after 1..k added links.
	Fractions map[string][]float64
	Rules     map[string]float64 // candidate threshold used per network
	Steps     int
}

// Figure10 runs the greedy sweep for every Tier-1 network (the paper adds
// up to 8 links).
func (l *Lab) Figure10(k int) (*Figure10Result, error) {
	defer l.track("figure10")()
	if k <= 0 {
		k = 8
	}
	out := &Figure10Result{
		Fractions: make(map[string][]float64),
		Rules:     make(map[string]float64),
		Steps:     k,
	}
	for _, n := range l.Tier1 {
		adds, rule, err := l.greedyLinks(n, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure10 %s: %w", n.Name, err)
		}
		fr := make([]float64, 0, len(adds))
		for _, a := range adds {
			fr = append(fr, a.Fraction)
		}
		out.Fractions[n.Name] = fr
		out.Rules[n.Name] = rule
	}
	return out, nil
}

// PeeringSuggestion is one regional network's best new peering (Figure 11).
type PeeringSuggestion struct {
	Network      string
	BestPeer     string
	Fraction     float64 // lower-bound bit-risk after peering / before
	SharedCities int
	Alternatives []interdomain.PeeringChoice
}

// Figure11Result reproduces Figure 11: the best additional peering
// relationship for each regional network.
type Figure11Result struct {
	Suggestions []PeeringSuggestion
}

// Figure11 scores every candidate peer of every regional network by the
// interdomain lower-bound objective. Networks with no candidate peers are
// skipped (they already peer with every co-located network).
func (l *Lab) Figure11() (*Figure11Result, error) {
	defer l.track("figure11")()
	names := l.RegionalNames()
	out := &Figure11Result{}
	for _, name := range names {
		choices, err := interdomain.BestNewPeering(
			l.Networks, datasets.ArePeered, name, names,
			l.Model, l.Census, risk.Params{LambdaH: 1e5},
			l.opts)
		if err != nil {
			continue // no candidates
		}
		out.Suggestions = append(out.Suggestions, PeeringSuggestion{
			Network:      name,
			BestPeer:     choices[0].Peer,
			Fraction:     choices[0].Fraction,
			SharedCities: choices[0].SharedCities,
			Alternatives: choices,
		})
	}
	if len(out.Suggestions) == 0 {
		return nil, fmt.Errorf("experiments: no regional network has candidate peers")
	}
	return out, nil
}
