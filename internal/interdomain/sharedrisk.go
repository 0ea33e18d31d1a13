package interdomain

import (
	"fmt"
	"math"
	"sort"

	"riskroute/internal/geo"
	"riskroute/internal/hazard"
	"riskroute/internal/topology"
)

// Shared-risk analysis — listed as future work in the paper's Section 8
// ("assessing shared risk between multiple ISPs using RiskRoute") — asks how
// much of two providers' disaster exposure is co-located: a regional network
// multihoming for resilience gains little from a second provider whose PoPs
// sit in the same hurricane zone. We quantify a pair's shared risk as the
// risk-weighted overlap of their footprints:
//
//	shared(A,B) = Σ_{a∈A} Σ_{b∈B, d(a,b) ≤ R} min(o_h(a), o_h(b))
//
// normalized by the geometric mean of the self-overlap terms shared(A,A)
// and shared(B,B), which yields 1 for identical footprints and 0 for
// geographically disjoint ones.

// SharedRiskResult is one network pair's overlap score.
type SharedRiskResult struct {
	A, B string
	// Raw is the unnormalized risk-weighted overlap.
	Raw float64
	// Normalized is Raw / √(self_A · self_B), in [0, 1] up to co-location
	// asymmetries.
	Normalized float64
	// ColocatedPairs counts PoP pairs within the radius.
	ColocatedPairs int
}

// SharedRisk computes the overlap between two networks under the given
// hazard model, counting PoP pairs within radiusMiles of each other.
func SharedRisk(a, b *topology.Network, model *hazard.Model, radiusMiles float64) SharedRiskResult {
	riskA := model.PoPRisks(a)
	riskB := model.PoPRisks(b)
	raw, pairs := overlap(a, riskA, b, riskB, radiusMiles)
	selfA, _ := overlap(a, riskA, a, riskA, radiusMiles)
	selfB, _ := overlap(b, riskB, b, riskB, radiusMiles)

	norm := 0.0
	if selfA > 0 && selfB > 0 {
		norm = raw / math.Sqrt(selfA*selfB)
	}
	return SharedRiskResult{
		A: a.Name, B: b.Name,
		Raw:            raw,
		Normalized:     norm,
		ColocatedPairs: pairs,
	}
}

func overlap(a *topology.Network, riskA []float64, b *topology.Network, riskB []float64, radius float64) (float64, int) {
	total := 0.0
	pairs := 0
	for i, pa := range a.PoPs {
		for j, pb := range b.PoPs {
			if geo.Distance(pa.Location, pb.Location) > radius {
				continue
			}
			pairs++
			m := riskA[i]
			if riskB[j] < m {
				m = riskB[j]
			}
			total += m
		}
	}
	return total, pairs
}

// RegionalImpact quantifies an EMP-style correlated regional failure's
// cross-provider blast radius (Gold & Cohen's model: one event disables
// everything inside a radius). For a disaster disk at center it counts,
// across all networks given, the PoPs inside the disk and the logical links
// with at least one endpoint inside — every one of which the single
// physical event severs at once. This is the link-level amplification the
// footprint-overlap score above measures in aggregate: providers whose PoPs
// co-locate lose their links to the same disk.
func RegionalImpact(nets []*topology.Network, center geo.Point, radiusMiles float64) (pops, links int) {
	for _, n := range nets {
		inside := make([]bool, len(n.PoPs))
		for i, p := range n.PoPs {
			if geo.Distance(center, p.Location) <= radiusMiles {
				inside[i] = true
				pops++
			}
		}
		for _, l := range n.Links {
			if inside[l.A] || inside[l.B] {
				links++
			}
		}
	}
	return pops, links
}

// SharedRiskMatrix scores every unordered pair among the networks, sorted
// by descending normalized overlap. It returns an error with fewer than two
// networks or a radius that is not finite and positive.
func SharedRiskMatrix(nets []*topology.Network, model *hazard.Model, radiusMiles float64) ([]SharedRiskResult, error) {
	if len(nets) < 2 {
		return nil, fmt.Errorf("interdomain: shared risk needs at least two networks")
	}
	if !(radiusMiles > 0) || math.IsInf(radiusMiles, 1) {
		return nil, fmt.Errorf("interdomain: shared-risk radius %v miles is not finite and positive", radiusMiles)
	}
	var out []SharedRiskResult
	for i := range nets {
		for j := i + 1; j < len(nets); j++ {
			out = append(out, SharedRisk(nets[i], nets[j], model, radiusMiles))
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].Normalized != out[y].Normalized {
			return out[x].Normalized > out[y].Normalized
		}
		if out[x].A != out[y].A {
			return out[x].A < out[y].A
		}
		return out[x].B < out[y].B
	})
	return out, nil
}
