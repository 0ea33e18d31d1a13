package experiments

import (
	"fmt"

	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/interdomain"
	"riskroute/internal/risk"
)

// ReplayPoint is one advisory tick of a disaster case study.
type ReplayPoint struct {
	AdvisoryNumber int
	Label          string // e.g. "11 AM EDT SAT AUG 27 2011"
	// RiskReduction per network at this advisory.
	RiskReduction map[string]float64
}

// ReplayResult is one storm's time series (Figures 12 and 13).
type ReplayResult struct {
	Storm    string
	Networks []string
	Points   []ReplayPoint
}

// advisoryLabel renders a compact advisory tag for the series axes (the
// paper labels ticks with local times like "2 AM FRI AUG 26 2011"; UTC keeps
// the three storms' labels uniform).
func advisoryLabel(a *forecast.Advisory) string {
	return fmt.Sprintf("ADV %d %s", a.Number, a.Time.UTC().Format("Jan 2 15:04Z 2006"))
}

// Figure12 reproduces Figure 12 for one storm: per-advisory intradomain
// risk-reduction ratios for the seven Tier-1 networks, with forecast risk
// from the parsed advisory corpus (ρ_t = 50, ρ_h = 100, λ_h = 10⁵,
// λ_f = 10³). Only every ReplayStride-th advisory is evaluated.
func (l *Lab) Figure12(storm string) (*ReplayResult, error) {
	defer l.track("figure12")()
	track := datasets.HurricaneByName(storm)
	if track == nil {
		return nil, fmt.Errorf("experiments: unknown storm %q", storm)
	}
	replay, err := forecast.LoadReplay(track)
	if err != nil {
		return nil, err
	}
	rm := forecast.DefaultRiskModel()
	params := risk.PaperParams()

	out := &ReplayResult{Storm: storm}
	for _, n := range l.Tier1 {
		out.Networks = append(out.Networks, n.Name)
	}
	for i := 0; i < len(replay.Advisories); i += l.Cfg.ReplayStride {
		a := replay.Advisories[i]
		pt := ReplayPoint{
			AdvisoryNumber: a.Number,
			Label:          advisoryLabel(a),
			RiskReduction:  make(map[string]float64, len(l.Tier1)),
		}
		for _, n := range l.Tier1 {
			fc := rm.PoPRisks(a, n)
			e, err := l.EngineFor(n, params, fc)
			if err != nil {
				return nil, err
			}
			pt.RiskReduction[n.Name] = e.Evaluate().RiskReduction
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Figure13 reproduces Figure 13 for one storm: per-advisory interdomain
// risk-reduction ratios for the regional networks with more than 20% of
// their PoPs inside the storm's final scope.
func (l *Lab) Figure13(storm string) (*ReplayResult, error) {
	defer l.track("figure13")()
	track := datasets.HurricaneByName(storm)
	if track == nil {
		return nil, fmt.Errorf("experiments: unknown storm %q", storm)
	}
	replay, err := forecast.LoadReplay(track)
	if err != nil {
		return nil, err
	}
	scope := forecast.ScopeOf(replay)
	qualifying := l.scopedRegionals(scope, 0.2)
	if len(qualifying) == 0 {
		return nil, fmt.Errorf("experiments: no regional network has >20%% of PoPs in %s's scope", storm)
	}

	comp, err := interdomain.Build(l.Networks, datasets.ArePeered)
	if err != nil {
		return nil, err
	}
	fractions, err := interdomain.Fractions(comp, l.Census)
	if err != nil {
		return nil, err
	}
	hist := l.Model.PoPRisks(comp.Flat)
	rm := forecast.DefaultRiskModel()
	params := risk.PaperParams()
	regionalNames := l.RegionalNames()

	out := &ReplayResult{Storm: storm}
	for _, n := range qualifying {
		out.Networks = append(out.Networks, n.Name)
	}
	for i := 0; i < len(replay.Advisories); i += l.Cfg.ReplayStride {
		a := replay.Advisories[i]
		fc := rm.PoPRisks(a, comp.Flat)
		an, err := interdomain.NewAnalysisPrecomputed(comp, hist, fractions, fc, params,
			l.opts)
		if err != nil {
			return nil, err
		}
		pt := ReplayPoint{
			AdvisoryNumber: a.Number,
			Label:          advisoryLabel(a),
			RiskReduction:  make(map[string]float64, len(qualifying)),
		}
		for _, n := range qualifying {
			r, err := an.RegionalRatios(n.Name, regionalNames)
			if err != nil {
				return nil, err
			}
			pt.RiskReduction[n.Name] = r.RiskReduction
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}
