package experiments

import (
	"fmt"

	"riskroute/internal/datasets"
	"riskroute/internal/interdomain"
	"riskroute/internal/kde"
	"riskroute/internal/risk"
	"riskroute/internal/stats"
)

// Table1Row is one catalog's cross-validated kernel bandwidth (paper
// Table 1).
type Table1Row struct {
	Event           string
	Entries         int
	PaperEntries    int
	FittedBandwidth float64 // miles, from 5-fold CV / KL divergence
	PaperBandwidth  float64
}

// Table1Result reproduces Table 1: trained kernel density bandwidths for the
// FEMA and NOAA catalogs.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 runs 5-fold cross-validation with the KL-divergence criterion over
// each synthetic catalog, reproducing the paper's bandwidth-training
// procedure. CV subsamples catalogs above a cap for tractability (the
// likelihood surface is smooth in σ, so the winner is stable).
func (l *Lab) Table1() (*Table1Result, error) {
	defer l.track("table1")()
	out := &Table1Result{}
	for _, et := range datasets.EventTypes {
		events := l.EventsFor(et)
		res := kde.SelectBandwidth(events, kde.CVConfig{
			Candidates: kde.LogGrid(2, 600, l.Cfg.CVCandidates),
			MaxEvents:  l.Cfg.CVMaxEvents,
			Seed:       l.Cfg.Seed,
			Workers:    l.Cfg.Workers,
			Metrics:    l.Cfg.Metrics,
		})
		out.Rows = append(out.Rows, Table1Row{
			Event:           et.String(),
			Entries:         len(events),
			PaperEntries:    et.PaperCount(),
			FittedBandwidth: res.Bandwidth,
			PaperBandwidth:  et.PaperBandwidth(),
		})
	}
	return out, nil
}

// Table2Row is one Tier-1 network's ratio analysis (paper Table 2).
type Table2Row struct {
	Network string
	PoPs    int
	// At λ_h = 10⁵.
	RiskReduction5    float64
	DistanceIncrease5 float64
	// At λ_h = 10⁶.
	RiskReduction6    float64
	DistanceIncrease6 float64
}

// Table2Result reproduces Table 2: Tier-1 bit-risk/bit-mile trade-offs under
// intradomain RiskRoute at two historical-risk weightings.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 evaluates all-pairs intradomain RiskRoute for the seven Tier-1
// networks at λ_h ∈ {10⁵, 10⁶} (no active forecast, as in the paper).
func (l *Lab) Table2() (*Table2Result, error) {
	defer l.track("table2")()
	out := &Table2Result{}
	for _, n := range l.Tier1 {
		row := Table2Row{Network: n.Name, PoPs: len(n.PoPs)}
		for _, lh := range []float64{1e5, 1e6} {
			e, err := l.EngineFor(n, risk.Params{LambdaH: lh}, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: table2 %s: %w", n.Name, err)
			}
			r := e.Evaluate()
			if lh == 1e5 {
				row.RiskReduction5 = r.RiskReduction
				row.DistanceIncrease5 = r.DistanceIncrease
			} else {
				row.RiskReduction6 = r.RiskReduction
				row.DistanceIncrease6 = r.DistanceIncrease
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// RegionalEvaluation is one regional network's interdomain ratio point —
// the underlying data of Figure 8 and Table 3.
type RegionalEvaluation struct {
	Network          string
	RiskReduction    float64
	DistanceIncrease float64
	// Characteristics (Table 3's six columns).
	GeographicFootprint float64 // miles
	AveragePoPRisk      float64
	AverageOutdegree    float64
	PoPs                int
	Links               int
	Peers               int
}

// evaluateRegionals computes interdomain ratios for every regional network:
// sources are the network's PoPs; destinations are all PoPs of the 16
// regional networks; routing crosses the full 23-network peering mesh.
func (l *Lab) evaluateRegionals(params risk.Params) ([]RegionalEvaluation, error) {
	comp, err := interdomain.Build(l.Networks, datasets.ArePeered)
	if err != nil {
		return nil, err
	}
	an, err := interdomain.NewAnalysis(comp, l.Model, l.Census, nil, params,
		l.opts)
	if err != nil {
		return nil, err
	}
	names := l.RegionalNames()
	out := make([]RegionalEvaluation, 0, len(names))
	for _, name := range names {
		r, err := an.RegionalRatios(name, names)
		if err != nil {
			return nil, err
		}
		n := l.NetworkByName(name)
		out = append(out, RegionalEvaluation{
			Network:             name,
			RiskReduction:       r.RiskReduction,
			DistanceIncrease:    r.DistanceIncrease,
			GeographicFootprint: n.GeographicFootprint(),
			AveragePoPRisk:      l.Model.MeanPoPRisk(n),
			AverageOutdegree:    n.AverageOutdegree(),
			PoPs:                len(n.PoPs),
			Links:               len(n.Links),
			Peers:               len(datasets.PeersOf(name)),
		})
	}
	return out, nil
}

// Table3Row is one network characteristic's explanatory power (paper
// Table 3).
type Table3Row struct {
	Characteristic string
	RiskR2         float64 // R² against the risk reduction ratio
	DistanceR2     float64 // R² against the distance increase ratio
}

// Table3Result reproduces Table 3: R² of regional network characteristics
// against RiskRoute's interdomain ratios.
type Table3Result struct {
	Rows        []Table3Row
	Evaluations []RegionalEvaluation
}

// Table3 regresses each of the six network characteristics against the
// regional networks' interdomain risk-reduction and distance-increase ratios
// (λ_h = 10⁵, as in the paper's Section 7.1.1).
func (l *Lab) Table3() (*Table3Result, error) {
	defer l.track("table3")()
	evals, err := l.evaluateRegionals(risk.Params{LambdaH: 1e5})
	if err != nil {
		return nil, err
	}
	rr := make([]float64, len(evals))
	dr := make([]float64, len(evals))
	for i, e := range evals {
		rr[i] = e.RiskReduction
		dr[i] = e.DistanceIncrease
	}
	characteristic := func(name string, get func(RegionalEvaluation) float64) Table3Row {
		xs := make([]float64, len(evals))
		for i, e := range evals {
			xs[i] = get(e)
		}
		return Table3Row{
			Characteristic: name,
			RiskR2:         stats.Linregress(xs, rr).R2,
			DistanceR2:     stats.Linregress(xs, dr).R2,
		}
	}
	out := &Table3Result{Evaluations: evals}
	out.Rows = append(out.Rows,
		characteristic("Geographic Footprint", func(e RegionalEvaluation) float64 { return e.GeographicFootprint }),
		characteristic("Average PoP Risk", func(e RegionalEvaluation) float64 { return e.AveragePoPRisk }),
		characteristic("Average Outdegree", func(e RegionalEvaluation) float64 { return e.AverageOutdegree }),
		characteristic("Number of PoPs", func(e RegionalEvaluation) float64 { return float64(e.PoPs) }),
		characteristic("Number of Links", func(e RegionalEvaluation) float64 { return float64(e.Links) }),
		characteristic("Number of Peers", func(e RegionalEvaluation) float64 { return float64(e.Peers) }),
	)
	return out, nil
}
