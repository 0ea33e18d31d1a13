package core

import (
	"fmt"
	"math"
)

// Outage simulation closes the loop the paper motivates: given the set of
// PoPs a disaster takes down (e.g. every PoP inside a hurricane's
// hurricane-force wind field), how much connectivity survives and what does
// rerouting around the failures cost? This is the evaluation a network
// operator would run when deciding whether RiskRoute's provisioning
// recommendations are worth deploying.

// OutageImpact summarizes a simulated multi-PoP failure.
type OutageImpact struct {
	// FailedPoPs is the number of PoPs taken down.
	FailedPoPs int
	// SurvivingPoPs is the number still up.
	SurvivingPoPs int
	// TotalPairs is the number of surviving unordered PoP pairs.
	TotalPairs int
	// DisconnectedPairs counts surviving pairs with no remaining path.
	DisconnectedPairs int
	// ReroutedPairs counts pairs whose shortest path changed (it previously
	// crossed a failed PoP).
	ReroutedPairs int
	// MeanDetourMiles is the mean extra distance over rerouted pairs.
	MeanDetourMiles float64
	// StrandedPopulation is the population fraction served by PoPs that are
	// down or cut off from the largest surviving component.
	StrandedPopulation float64
}

// SimulateOutage fails the given PoPs and measures the surviving topology
// against the intact one. Failed indices out of range or duplicated are
// rejected.
func (e *Engine) SimulateOutage(failed []int) (OutageImpact, error) {
	n := e.N()
	down := make([]bool, n)
	for _, f := range failed {
		if f < 0 || f >= n {
			return OutageImpact{}, fmt.Errorf("core: failed PoP %d out of range", f)
		}
		if down[f] {
			return OutageImpact{}, fmt.Errorf("core: PoP %d failed twice", f)
		}
		down[f] = true
	}

	// The surviving topology is a masked view: the adjacency without the
	// failed PoPs and every link touching them.
	survivors := e.adj.Without(nil, failed)
	impact := OutageImpact{FailedPoPs: len(failed), SurvivingPoPs: n - len(failed)}
	var detourSum float64
	for i := 0; i < n; i++ {
		if down[i] {
			continue
		}
		before := e.adj.Sweep(i, 0)
		after := survivors.Sweep(i, 0)
		for j := i + 1; j < n; j++ {
			if down[j] {
				continue
			}
			impact.TotalPairs++
			switch {
			case math.IsInf(after.Dist[j], 1):
				impact.DisconnectedPairs++
			case after.Dist[j] > before.Dist[j]+1e-9:
				impact.ReroutedPairs++
				detourSum += after.Dist[j] - before.Dist[j]
			}
		}
		before.Release()
		after.Release()
	}
	if impact.ReroutedPairs > 0 {
		impact.MeanDetourMiles = detourSum / float64(impact.ReroutedPairs)
	}

	// Stranded population: failed PoPs plus surviving PoPs cut off from the
	// largest surviving component, the lowest-numbered one on ties. Failed
	// PoPs are isolated in the view, so no surviving PoP shares a component
	// with one.
	label, sizes := survivors.Components()
	giant := int32(-1)
	for v := 0; v < n; v++ {
		if !down[v] && (giant < 0 || sizes[label[v]] > sizes[giant]) {
			giant = label[v]
		}
	}
	for i := 0; i < n; i++ {
		if down[i] || label[i] != giant {
			impact.StrandedPopulation += e.Ctx.Fractions[i]
		}
	}
	return impact, nil
}
