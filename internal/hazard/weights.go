package hazard

import (
	"fmt"

	"riskroute/internal/geo"
	"riskroute/internal/topology"
)

// Section 5.2 of the paper notes that operators can emphasize the event
// types that threaten their infrastructure most ("flooding events for
// network infrastructure that lies on the first floor of a building")
// through user-defined weights on the per-catalog risk surfaces. This file
// implements that extension: weighted aggregation over the fitted sources.

// Weights maps source names to non-negative emphasis factors. Sources
// absent from the map keep weight 1.
type Weights map[string]float64

// Validate rejects negative weights and weights for unknown sources.
func (m *Model) ValidateWeights(w Weights) error {
	known := make(map[string]bool, len(m.Sources))
	for _, s := range m.Sources {
		known[s.Name] = true
	}
	for name, v := range w {
		if !known[name] {
			return fmt.Errorf("hazard: weight for unknown source %q", name)
		}
		if v < 0 {
			return fmt.Errorf("hazard: negative weight %v for %q", v, name)
		}
	}
	return nil
}

// WeightedRiskAt returns the weighted aggregate risk at p: each source's
// density scaled by its weight (default 1), in the model's risk units,
// re-normalized when a lenient fit lost layers.
func (m *Model) WeightedRiskAt(p geo.Point, w Weights) float64 {
	sum := 0.0
	for i := range m.Sources {
		factor := 1.0
		if len(w) > 0 { // RiskAt passes nil: no lookup per source on its hot path
			if v, ok := w[m.Sources[i].Name]; ok {
				factor = v
			}
		}
		sum += factor * m.Sources[i].Field.At(p)
	}
	return sum * RiskScale * m.Renorm()
}

// WeightedPoPRisks evaluates WeightedRiskAt for every PoP of a network.
func (m *Model) WeightedPoPRisks(n *topology.Network, w Weights) []float64 {
	out := make([]float64, len(n.PoPs))
	for i, p := range n.PoPs {
		out[i] = m.WeightedRiskAt(p.Location, w)
	}
	return out
}
