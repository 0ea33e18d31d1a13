package scenario

import (
	"fmt"
	"log/slog"
	"math"
	"time"

	"riskroute/internal/core"
	"riskroute/internal/forecast"
	"riskroute/internal/interdomain"
	"riskroute/internal/obs"
	"riskroute/internal/parallel"
	"riskroute/internal/risk"
	"riskroute/internal/stats"
	"riskroute/internal/topology"
)

// World binds one network to its static risk inputs — the pieces of a
// risk.Context that do not change across scenarios. Each scenario then
// supplies the forecast layer (and, for regional failures, the severed
// links) on top.
type World struct {
	Net       *topology.Network
	Hist      []float64 // o_h per PoP, index-aligned
	Fractions []float64 // c_i per PoP, index-aligned
}

// SweepConfig tunes ensemble evaluation. Scenario wind fields map to o_f
// through forecast.DefaultRiskModel, the paper's ρ_t = 50, ρ_h = 100.
type SweepConfig struct {
	// Seed drives the deterministic routed-pair sample per network;
	// typically the ensemble seed.
	Seed uint64
	// Params are the bit-risk λ knobs (zero values are legal but inert).
	Params risk.Params
	// Pairs is how many PoP pairs are routed per network and scenario
	// (default 4). Pair choice is a function of Seed and the network name.
	Pairs int
	// Workers bounds the sweep's goroutines; results are bit-identical at
	// any setting (scenarios map to slots, reduced in scenario order).
	Workers int
	// Metrics, when non-nil, receives scenario.swept_total and
	// scenario.sweep.scenario_seconds.
	Metrics *obs.Registry
	// Trace, when non-nil, parents the "ensemble-sweep" span and its
	// per-family "sweep-<family>" children.
	Trace *obs.Span
	// Logger, when non-nil, receives one record per family swept.
	Logger *slog.Logger
}

// Distribution summarizes one metric's per-scenario values. Percentiles
// come from obs.Histogram.Quantile over a 64-bucket histogram spanning
// [Min, Max] — the shared estimator, not a private sorted-slice one.
// Values are shifted by Min before observation so the estimator's
// first-bucket-starts-at-zero convention interpolates inside the true
// range, then shifted back. Exceedance reports P(value > Threshold) at
// eight evenly spaced thresholds across the range.
type Distribution struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`

	Exceedance []ExceedancePoint `json:"exceedance,omitempty"`
}

// ExceedancePoint is one point of an exceedance curve.
type ExceedancePoint struct {
	Threshold float64 `json:"threshold"`
	Fraction  float64 `json:"fraction"`
}

// FamilyReport is one network's outage-risk distributions under one
// scenario family.
type FamilyReport struct {
	Family    string `json:"family"`
	Scenarios int    `json:"scenarios"`

	// Exposure is Σ c_i·o_f(i): population-weighted forecast exposure.
	Exposure Distribution `json:"exposure"`
	// PoPsHit counts PoPs with o_f > 0.
	PoPsHit Distribution `json:"pops_hit"`
	// RouteBitRiskMiles is the mean RiskRoute cost over the sampled pairs.
	RouteBitRiskMiles Distribution `json:"route_bit_risk_miles"`
	// RouteRiskRatio is Σ riskroute cost / Σ shortest-path cost over the
	// sampled pairs (1 = no headroom, lower = RiskRoute helps).
	RouteRiskRatio Distribution `json:"route_risk_ratio"`

	// RegionalFailure only: links severed and PoP pairs disconnected.
	DisabledLinks    *Distribution `json:"disabled_links,omitempty"`
	UnreachablePairs *Distribution `json:"unreachable_pairs,omitempty"`
}

// NetworkReport collects one network's family reports.
type NetworkReport struct {
	Network  string         `json:"network"`
	PoPs     int            `json:"pops"`
	Families []FamilyReport `json:"families"`
}

// FamilyCount records how many scenarios of a family the ensemble held.
type FamilyCount struct {
	Family string `json:"family"`
	Count  int    `json:"count"`
}

// Report is a full ensemble evaluation: per-network, per-family
// distributions rather than point estimates.
type Report struct {
	Seed      uint64        `json:"seed"`
	Scenarios int           `json:"scenarios"`
	Pairs     int           `json:"route_pairs"`
	Families  []FamilyCount `json:"families"`

	// SharedConduitLinks distributes, over the regional-failure scenarios,
	// the total logical links severed across ALL evaluated networks by the
	// one physical event (interdomain.RegionalImpact) — the cross-provider
	// amplification of shared conduits.
	SharedConduitLinks *Distribution `json:"shared_conduit_links,omitempty"`

	Networks []NetworkReport `json:"networks"`
}

// sample is one scenario's raw measurements against one world.
type sample struct {
	exposure    float64
	popsHit     float64
	routeCost   float64
	riskRatio   float64
	disabled    float64
	unreachable float64
}

// sweepResult is one scenario's evaluation across every world.
type sweepResult struct {
	samples []sample
	conduit float64 // RegionalFailure: cross-network links severed
	err     error
}

// Sweep evaluates every scenario against every world and aggregates the
// per-scenario measurements into distributions. It builds one base engine
// per world, so a world whose risk context is invalid fails the sweep
// before any scenario runs. Scenarios are grouped by family (each family
// gets its own trace span) and evaluated in parallel, each repricing the
// base engines; results reduce in scenario order, so the report is
// bit-identical at any worker count.
func Sweep(scenarios []*Scenario, worlds []World, cfg SweepConfig) (*Report, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("scenario: sweep of empty ensemble")
	}
	if len(worlds) == 0 {
		return nil, fmt.Errorf("scenario: sweep with no networks")
	}
	bases := make([]*core.Engine, len(worlds))
	for wi, w := range worlds {
		if len(w.Hist) != len(w.Net.PoPs) || len(w.Fractions) != len(w.Net.PoPs) {
			return nil, fmt.Errorf("scenario: world %q risk slices not index-aligned", w.Net.Name)
		}
		ctx := &risk.Context{Net: w.Net, Hist: w.Hist, Fractions: w.Fractions, Params: cfg.Params}
		var err error
		if bases[wi], err = core.New(ctx, core.Options{Workers: 1}); err != nil {
			return nil, fmt.Errorf("scenario: world %q: %w", w.Net.Name, err)
		}
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 4
	}
	rm := forecast.DefaultRiskModel()
	lg := obs.LoggerOrNop(cfg.Logger)
	span := cfg.Trace.Child("ensemble-sweep")
	defer span.End()

	var scenarioSeconds *obs.Histogram
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("scenario.swept_total").Add(int64(len(scenarios) * len(worlds)))
		scenarioSeconds = cfg.Metrics.Histogram("scenario.sweep.scenario_seconds", obs.LatencyBuckets())
	}

	// The routed pair sample is fixed per network, independent of the
	// scenarios, so costs are comparable across scenarios and families.
	pairs := make([][][2]int, len(worlds))
	nets := make([]*topology.Network, len(worlds))
	for wi := range worlds {
		pairs[wi] = samplePairs(worlds[wi].Net, cfg.Seed, cfg.Pairs)
		nets[wi] = worlds[wi].Net
	}

	// Group scenarios by family, preserving ensemble order within each.
	groups := make([][]*Scenario, numFamilies)
	var famOrder []Family
	for _, s := range scenarios {
		if s.Family < 0 || s.Family >= numFamilies {
			return nil, fmt.Errorf("scenario: unknown family %d", int(s.Family))
		}
		if groups[s.Family] == nil {
			famOrder = append(famOrder, s.Family)
		}
		groups[s.Family] = append(groups[s.Family], s)
	}

	reports := make([]NetworkReport, len(worlds))
	for wi, w := range worlds {
		reports[wi] = NetworkReport{Network: w.Net.Name, PoPs: len(w.Net.PoPs)}
	}
	var conduits []float64
	var familyCounts []FamilyCount

	for _, fam := range famOrder {
		group := groups[fam]
		fspan := span.Child("sweep-" + fam.String())
		started := time.Now()
		results := parallel.Map(len(group), cfg.Workers, func(i int) sweepResult {
			s := group[i]
			t0 := time.Now()
			r := sweepResult{samples: make([]sample, len(worlds))}
			for wi := range worlds {
				sm, err := evalOne(s, &worlds[wi], bases[wi], pairs[wi], rm)
				if err != nil {
					r.err = fmt.Errorf("scenario %d (%s) on %s: %w", s.ID, s.Family, worlds[wi].Net.Name, err)
					return r
				}
				r.samples[wi] = sm
			}
			if s.Family == RegionalFailure {
				_, links := interdomain.RegionalImpact(nets, s.Center, s.RadiusMi)
				r.conduit = float64(links)
			}
			scenarioSeconds.Observe(time.Since(t0).Seconds())
			return r
		})
		for _, r := range results {
			if r.err != nil {
				return nil, r.err
			}
		}

		for wi := range worlds {
			fr := FamilyReport{Family: fam.String(), Scenarios: len(group)}
			n := len(group)
			exposure := make([]float64, n)
			popsHit := make([]float64, n)
			routeCost := make([]float64, n)
			riskRatio := make([]float64, n)
			for i, r := range results {
				sm := r.samples[wi]
				exposure[i] = sm.exposure
				popsHit[i] = sm.popsHit
				routeCost[i] = sm.routeCost
				riskRatio[i] = sm.riskRatio
			}
			fr.Exposure = distribute(exposure)
			fr.PoPsHit = distribute(popsHit)
			fr.RouteBitRiskMiles = distribute(routeCost)
			fr.RouteRiskRatio = distribute(riskRatio)
			if fam == RegionalFailure {
				disabled := make([]float64, n)
				unreachable := make([]float64, n)
				for i, r := range results {
					disabled[i] = r.samples[wi].disabled
					unreachable[i] = r.samples[wi].unreachable
				}
				d, u := distribute(disabled), distribute(unreachable)
				fr.DisabledLinks, fr.UnreachablePairs = &d, &u
			}
			reports[wi].Families = append(reports[wi].Families, fr)
		}
		if fam == RegionalFailure {
			for _, r := range results {
				conduits = append(conduits, r.conduit)
			}
		}
		familyCounts = append(familyCounts, FamilyCount{Family: fam.String(), Count: len(group)})
		fspan.SetAttr("scenarios", len(group))
		fspan.End()
		lg.Info("family swept", "family", fam.String(), "scenarios", len(group),
			"networks", len(worlds), "seconds", time.Since(started).Seconds())
	}

	rep := &Report{
		Seed:      cfg.Seed,
		Scenarios: len(scenarios),
		Pairs:     cfg.Pairs,
		Families:  familyCounts,
		Networks:  reports,
	}
	if len(conduits) > 0 {
		d := distribute(conduits)
		rep.SharedConduitLinks = &d
	}
	span.SetAttr("scenarios", len(scenarios))
	span.SetAttr("networks", len(worlds))
	return rep, nil
}

// evalOne compiles one scenario against one world and measures it: static
// exposure plus routed bit-risk miles over the world's sampled pairs. The
// world's base engine is repriced with the scenario's forecast layer and,
// for a regional failure, the severed links are masked out of it. Inner
// workers stay sequential; sweep parallelism lives at the scenario level.
func evalOne(s *Scenario, w *World, base *core.Engine, pairs [][2]int, rm forecast.RiskModel) (sample, error) {
	ov := s.Compile(w.Net, rm)
	ctx := *base.Ctx
	ctx.Forecast = ov.Forecast
	eng, err := base.Reprice(&ctx, core.Options{Workers: 1})
	if err == nil && len(ov.Disabled) > 0 {
		eng, err = eng.WithoutLinks(ov.Disabled)
	}
	if err != nil {
		return sample{}, err
	}
	var sm sample
	for i, f := range ov.Forecast {
		if f > 0 {
			sm.popsHit++
			sm.exposure += w.Fractions[i] * f
		}
	}
	var costSum, baseSum float64
	routed := 0
	for _, p := range pairs {
		rr := eng.RiskRoutePair(p[0], p[1])
		if math.IsInf(rr.BitRiskMiles, 1) {
			continue // pair severed by the scenario
		}
		sp := eng.ShortestPair(p[0], p[1])
		costSum += rr.BitRiskMiles
		baseSum += sp.BitRiskMiles
		routed++
	}
	if routed > 0 {
		sm.routeCost = costSum / float64(routed)
		if baseSum > 0 {
			sm.riskRatio = costSum / baseSum
		}
	}
	sm.disabled = float64(len(ov.Disabled))
	sm.unreachable = float64(eng.UnreachablePairs())
	return sm, nil
}

// samplePairs draws k distinct unordered PoP pairs for one network from the
// sweep seed and the network's name — a function of neither scenario order
// nor worker count.
func samplePairs(net *topology.Network, seed uint64, k int) [][2]int {
	rng := stats.NewRNG(stats.NewRNG(seed ^ hashString(net.Name)).Uint64())
	n := len(net.PoPs)
	if max := n * (n - 1) / 2; k > max {
		k = max
	}
	out := make([][2]int, 0, k)
	seen := make(map[[2]int]bool, k)
	for len(out) < k {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		key := [2]int{i, j}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, key)
	}
	return out
}

// hashString is FNV-1a, inlined so pair sampling never depends on
// hash/fnv's internal state representation.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// distribute summarizes values (in scenario order) into a Distribution.
// See the Distribution doc for the estimator contract.
func distribute(values []float64) Distribution {
	d := Distribution{Count: len(values)}
	if len(values) == 0 {
		return d
	}
	d.Min, d.Max = values[0], values[0]
	sum := 0.0
	for _, v := range values {
		if v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
		}
		sum += v
	}
	d.Mean = sum / float64(len(values))
	if d.Max <= d.Min {
		// Degenerate distribution: every quantile is the single value.
		d.P50, d.P90, d.P99 = d.Min, d.Min, d.Min
		return d
	}
	const buckets = 64
	width := d.Max - d.Min
	bounds := make([]float64, buckets)
	for i := range bounds {
		bounds[i] = width * float64(i+1) / buckets
	}
	h := obs.NewHistogram(bounds)
	for _, v := range values {
		h.Observe(v - d.Min)
	}
	d.P50 = d.Min + h.Quantile(0.50)
	d.P90 = d.Min + h.Quantile(0.90)
	d.P99 = d.Min + h.Quantile(0.99)

	d.Exceedance = make([]ExceedancePoint, 0, 8)
	for i := 1; i <= 8; i++ {
		t := d.Min + width*float64(i)/9
		over := 0
		for _, v := range values {
			if v > t {
				over++
			}
		}
		d.Exceedance = append(d.Exceedance, ExceedancePoint{
			Threshold: t,
			Fraction:  float64(over) / float64(len(values)),
		})
	}
	return d
}
