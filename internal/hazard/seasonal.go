package hazard

import (
	"fmt"

	"riskroute/internal/geo"
	"riskroute/internal/topology"
)

// Seasonal holds one fitted risk model per season, implementing the
// seasonal-correlation extension the paper defers: instead of a single
// annual outage likelihood per event type, the operator can route against
// the current season's distribution (a hurricane-season Gulf route differs
// from a February one).
type Seasonal struct {
	// Models is indexed by datasets.Season (Winter..Fall).
	Models [4]*Model
	// Names labels the seasons, index-aligned.
	Names [4]string
}

// FitSeasonal fits one model per season from per-season source sets.
// sourcesBySeason must have exactly four entries (Winter..Fall). Callers
// should set each Source's Scale to the season's relative event rate
// (e.g. 4× its share of annual events): kernel densities normalize away
// catalog size, so without the scale every season would look equally risky.
func FitSeasonal(sourcesBySeason [4][]Source, cfg FitConfig) (*Seasonal, error) {
	out := &Seasonal{Names: [4]string{"Winter", "Spring", "Summer", "Fall"}}
	for i, sources := range sourcesBySeason {
		m, err := Fit(sources, cfg)
		if err != nil {
			return nil, fmt.Errorf("hazard: season %s: %w", out.Names[i], err)
		}
		out.Models[i] = m
	}
	return out, nil
}

// RiskAt returns the seasonal aggregate risk at p. It panics on an invalid
// season index.
func (s *Seasonal) RiskAt(p geo.Point, season int) float64 {
	if season < 0 || season > 3 {
		panic("hazard: season out of range")
	}
	return s.Models[season].RiskAt(p)
}

// PoPRisks evaluates the seasonal risk at every PoP of a network.
func (s *Seasonal) PoPRisks(n *topology.Network, season int) []float64 {
	if season < 0 || season > 3 {
		panic("hazard: season out of range")
	}
	return s.Models[season].PoPRisks(n)
}
