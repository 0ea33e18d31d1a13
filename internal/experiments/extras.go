package experiments

import (
	"fmt"
	"io"

	"riskroute/internal/hazard"
	"riskroute/internal/interdomain"
	"riskroute/internal/report"
	"riskroute/internal/risk"
)

// ExtrasResult collects the beyond-paper analyses (DESIGN.md's extension
// table): the shared-risk matrix over all 23 networks and a seasonal
// routing summary for a Gulf-exposed network.
type ExtrasResult struct {
	// TopSharedRisk lists the most-overlapping provider pairs.
	TopSharedRisk []interdomain.SharedRiskResult
	// SeasonalNetwork is the network the seasonal sweep used.
	SeasonalNetwork string
	// SeasonalRiskReduction maps season name to the intradomain
	// risk-reduction ratio under that season's risk surface.
	SeasonalRiskReduction map[string]float64
	// SeasonalMeanRisk maps season name to the network's mean PoP risk.
	SeasonalMeanRisk map[string]float64
}

// Extras runs the extension analyses at the lab's scale.
func (l *Lab) Extras() (*ExtrasResult, error) {
	defer l.track("extras")()
	out := &ExtrasResult{
		SeasonalNetwork:       "Costreet",
		SeasonalRiskReduction: make(map[string]float64),
		SeasonalMeanRisk:      make(map[string]float64),
	}

	matrix, err := interdomain.SharedRiskMatrix(l.Networks, l.Model, 50)
	if err != nil {
		return nil, err
	}
	if len(matrix) > 12 {
		matrix = matrix[:12]
	}
	out.TopSharedRisk = matrix

	// Seasonal sweep: per-season catalogs scaled by seasonal event rates.
	bySeason := hazard.SyntheticSeasonalSources(l.eventCount, l.Cfg.Seed)
	seasonal, err := hazard.FitSeasonal(bySeason, hazard.FitConfig{CellMiles: l.Cfg.CellMiles})
	if err != nil {
		return nil, err
	}
	net := l.NetworkByName(out.SeasonalNetwork)
	asg, err := l.Assignment(net)
	if err != nil {
		return nil, err
	}
	for si, name := range seasonal.Names {
		hist := seasonal.PoPRisks(net, si)
		mean := 0.0
		for _, v := range hist {
			mean += v
		}
		out.SeasonalMeanRisk[name] = mean / float64(len(hist))

		ctx := &risk.Context{
			Net:       net,
			Hist:      hist,
			Fractions: asg.Fractions,
			Params:    risk.Params{LambdaH: 1e5},
		}
		e, err := newEngineForLab(l, ctx)
		if err != nil {
			return nil, err
		}
		out.SeasonalRiskReduction[name] = e.Evaluate().RiskReduction
	}
	return out, nil
}

// RenderExtras writes the extension analyses as text.
func RenderExtras(w io.Writer, r *ExtrasResult) error {
	t := &report.Table{
		Title:   "Extras A: shared disaster exposure between providers (top pairs, 50 mi radius)",
		Columns: []string{"Pair", "Normalized overlap", "Co-located PoP pairs"},
	}
	for _, s := range r.TopSharedRisk {
		t.AddRow(s.A+" ~ "+s.B, fmt.Sprintf("%.3f", s.Normalized), fmt.Sprintf("%d", s.ColocatedPairs))
	}
	if err := t.Render(w); err != nil {
		return err
	}

	t2 := &report.Table{
		Title:   fmt.Sprintf("Extras B: seasonal risk and routing for %s (λ_h=1e5)", r.SeasonalNetwork),
		Columns: []string{"Season", "Mean PoP risk", "Risk reduction ratio"},
	}
	for _, season := range []string{"Winter", "Spring", "Summer", "Fall"} {
		t2.AddRow(season,
			fmt.Sprintf("%.3f", r.SeasonalMeanRisk[season]),
			fmt.Sprintf("%.3f", r.SeasonalRiskReduction[season]))
	}
	return t2.Render(w)
}
