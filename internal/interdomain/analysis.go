package interdomain

import (
	"fmt"
	"sort"

	"riskroute/internal/core"
	"riskroute/internal/hazard"
	"riskroute/internal/population"
	"riskroute/internal/risk"
	"riskroute/internal/topology"
)

// Analysis wires a composite to the RiskRoute engine. The engine's
// shortest-path baseline is the paper's interdomain upper bound (geographic
// shortest path through all peering networks) and its RiskRoute side is the
// lower bound (risk-optimal routing with control of every network), so
// EvaluateSubset directly yields the interdomain risk/distance ratios of
// Section 7.1.
type Analysis struct {
	Comp   *Composite
	Engine *core.Engine
}

// Fractions computes the per-flat-node population fractions of a composite:
// each member network keeps its own nearest-neighbor assignment (the paper's
// per-network c_i), so α across networks keeps the metric's semantics.
func Fractions(comp *Composite, census *population.Census) ([]float64, error) {
	fractions := make([]float64, len(comp.Flat.PoPs))
	for ni, n := range comp.Networks {
		asg, err := population.Assign(census, n)
		if err != nil {
			return nil, fmt.Errorf("interdomain: assign %s: %w", n.Name, err)
		}
		for flat, net := range comp.NodeNet {
			if net == ni {
				fractions[flat] = asg.Fractions[comp.NodeLocal[flat]]
			}
		}
	}
	return fractions, nil
}

// NewAnalysis builds the risk context for a composite. Historical risk is
// evaluated at each flat PoP; population fractions come from Fractions.
// Forecast may be nil.
func NewAnalysis(comp *Composite, model *hazard.Model, census *population.Census,
	forecast []float64, params risk.Params, opts core.Options) (*Analysis, error) {

	fractions, err := Fractions(comp, census)
	if err != nil {
		return nil, err
	}
	return NewAnalysisPrecomputed(comp, model.PoPRisks(comp.Flat), fractions, forecast, params, opts)
}

// NewAnalysisPrecomputed builds an analysis from already-computed per-flat-
// node historical risk and population fractions. Disaster replays use this
// to avoid recomputing the assignment at every advisory, and the peering
// search to avoid recomputing it for every candidate peer.
func NewAnalysisPrecomputed(comp *Composite, hist, fractions, forecast []float64,
	params risk.Params, opts core.Options) (*Analysis, error) {

	ctx := &risk.Context{
		Net:       comp.Flat,
		Hist:      hist,
		Forecast:  forecast,
		Fractions: fractions,
		Params:    params,
	}
	engine, err := core.New(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &Analysis{Comp: comp, Engine: engine}, nil
}

// RegionalRatios evaluates the interdomain risk-reduction and
// distance-increase ratios for one regional network: every PoP of the
// network is a path source, and the destinations are all PoPs of the given
// destination networks (the paper uses the 16 regional networks).
func (a *Analysis) RegionalRatios(source string, destNetworks []string) (core.Ratios, error) {
	sources := a.Comp.NodesOf(source)
	if sources == nil {
		return core.Ratios{}, fmt.Errorf("interdomain: unknown network %q", source)
	}
	var dests []int
	for _, d := range destNetworks {
		nodes := a.Comp.NodesOf(d)
		if nodes == nil {
			return core.Ratios{}, fmt.Errorf("interdomain: unknown destination network %q", d)
		}
		dests = append(dests, nodes...)
	}
	return a.Engine.EvaluateSubset(sources, dests), nil
}

// PeeringChoice scores one candidate peer for a regional network.
type PeeringChoice struct {
	Peer string
	// Total is the lower-bound bit-risk miles over the network's
	// interdomain pairs with the candidate peering in place.
	Total float64
	// Fraction is Total relative to the no-new-peering baseline (< 1 means
	// the peering helps).
	Fraction float64
	// SharedCities is how many co-located PoP pairs the peering would join.
	SharedCities int
}

// BestNewPeering evaluates every candidate peer of the named regional
// network (co-located, not currently peered) and returns the choices sorted
// by ascending lower-bound total — the paper's Figure 11 analysis. The
// model/census/params must match those used to build the base analysis.
func BestNewPeering(nets []*topology.Network, peered func(a, b string) bool,
	name string, destNetworks []string, model *hazard.Model,
	census *population.Census, params risk.Params, opts core.Options) ([]PeeringChoice, error) {

	cands := CandidatePeers(nets, name, peered)
	if len(cands) == 0 {
		return nil, fmt.Errorf("interdomain: network %q has no candidate peers", name)
	}

	baseComp, err := Build(nets, peered)
	if err != nil {
		return nil, err
	}
	// A peering only adds zero-mile links, so every candidate composite has
	// the base's flat PoPs in the same order: one census assignment and one
	// set of PoP risks serve them all.
	fractions, err := Fractions(baseComp, census)
	if err != nil {
		return nil, err
	}
	hist := model.PoPRisks(baseComp.Flat)
	base, err := NewAnalysisPrecomputed(baseComp, hist, fractions, nil, params, opts)
	if err != nil {
		return nil, err
	}
	var destsBase []int
	for _, d := range destNetworks {
		destsBase = append(destsBase, baseComp.NodesOf(d)...)
	}
	baseTotal := base.Engine.TotalBitRiskSubset(baseComp.NodesOf(name), destsBase)
	if baseTotal <= 0 {
		return nil, fmt.Errorf("interdomain: zero baseline bit-risk for %q", name)
	}

	var self *topology.Network
	for _, n := range nets {
		if n.Name == name {
			self = n
		}
	}

	out := make([]PeeringChoice, 0, len(cands))
	for _, cand := range cands {
		cand := cand
		augPeered := func(a, b string) bool {
			if (a == name && b == cand) || (a == cand && b == name) {
				return true
			}
			return peered(a, b)
		}
		comp, err := Build(nets, augPeered)
		if err != nil {
			return nil, fmt.Errorf("interdomain: candidate %s: %w", cand, err)
		}
		an, err := NewAnalysisPrecomputed(comp, hist, fractions, nil, params, opts)
		if err != nil {
			return nil, fmt.Errorf("interdomain: candidate %s: %w", cand, err)
		}
		var dests []int
		for _, d := range destNetworks {
			dests = append(dests, comp.NodesOf(d)...)
		}
		total := an.Engine.TotalBitRiskSubset(comp.NodesOf(name), dests)

		var shared int
		for _, n := range nets {
			if n.Name == cand {
				shared = len(SharedCities(self, n))
			}
		}
		out = append(out, PeeringChoice{
			Peer:         cand,
			Total:        total,
			Fraction:     total / baseTotal,
			SharedCities: shared,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total < out[j].Total
		}
		return out[i].Peer < out[j].Peer
	})
	return out, nil
}
