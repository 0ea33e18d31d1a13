package core

import (
	"fmt"
	"math"

	"riskroute/internal/graph"
	"riskroute/internal/topology"
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

	// Surviving graph: original minus failed nodes (links to failed PoPs
	// drop with them).
	survivors := graph.New(n)
	for _, l := range e.Ctx.Net.Links {
		if !down[l.A] && !down[l.B] {
			survivors.AddEdge(l.A, l.B, e.Ctx.Net.LinkMiles(topology.Link{A: l.A, B: l.B}))
		}
	}

	impact := OutageImpact{FailedPoPs: len(failed), SurvivingPoPs: n - len(failed)}
	var detourSum float64
	intact := e.adj.Graph(0)

	for i := 0; i < n; i++ {
		if down[i] {
			continue
		}
		before := intact.Dijkstra(i)
		after := survivors.Dijkstra(i)
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
	}
	if impact.ReroutedPairs > 0 {
		impact.MeanDetourMiles = detourSum / float64(impact.ReroutedPairs)
	}

	// Stranded population: failed PoPs plus surviving PoPs cut off from the
	// largest surviving component (down nodes are isolated in `survivors`,
	// so skip them when sizing components).
	inGiant := giantComponent(survivors, down)
	for i := 0; i < n; i++ {
		if down[i] || !inGiant[i] {
			impact.StrandedPopulation += e.Ctx.Fractions[i]
		}
	}
	return impact, nil
}

// giantComponent marks the members of the largest connected component among
// non-failed nodes.
func giantComponent(g *graph.Graph, down []bool) []bool {
	best := []int(nil)
	for _, comp := range g.Components() {
		// Skip components that consist solely of failed (isolated) nodes.
		alive := comp[:0:0]
		for _, v := range comp {
			if !down[v] {
				alive = append(alive, v)
			}
		}
		if len(alive) > len(best) {
			best = alive
		}
	}
	out := make([]bool, g.N())
	for _, v := range best {
		out[v] = true
	}
	return out
}
