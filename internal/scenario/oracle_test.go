package scenario

import (
	"encoding/json"
	"math"
	"testing"

	"riskroute/internal/core"
	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/risk"
	"riskroute/internal/stats"
	"riskroute/internal/topology"
)

// An ensemble sweep reprices one base engine per world and masks a
// regional failure's severed links out of it. The oracle below is the
// evaluation it replaced: a network copy without the severed links and a
// fresh engine per (scenario, world).

// oracleEvalOne is the pre-mask evalOne.
func oracleEvalOne(s *Scenario, w *World, pairs [][2]int, params risk.Params, rm forecast.RiskModel) (sample, error) {
	ov := s.Compile(w.Net, rm)
	net := w.Net
	if len(ov.Disabled) > 0 {
		net = pruneLinks(w.Net, ov.Disabled)
	}
	ctx := &risk.Context{Net: net, Hist: w.Hist, Forecast: ov.Forecast, Fractions: w.Fractions, Params: params}
	eng, err := core.New(ctx, core.Options{Workers: 1})
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
			continue
		}
		costSum += rr.BitRiskMiles
		baseSum += eng.ShortestPair(p[0], p[1]).BitRiskMiles
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

// pruneLinks returns a shallow network copy without the disabled links.
func pruneLinks(net *topology.Network, disabled []int) *topology.Network {
	dead := make(map[int]bool, len(disabled))
	for _, i := range disabled {
		dead[i] = true
	}
	var links []topology.Link
	for i, l := range net.Links {
		if !dead[i] {
			links = append(links, l)
		}
	}
	return &topology.Network{Name: net.Name, Tier: net.Tier, PoPs: net.PoPs, Links: links}
}

func sameSample(a, b sample) bool {
	for _, p := range [][2]float64{
		{a.exposure, b.exposure}, {a.popsHit, b.popsHit}, {a.routeCost, b.routeCost},
		{a.riskRatio, b.riskRatio}, {a.disabled, b.disabled}, {a.unreachable, b.unreachable},
	} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// builtinWorlds binds four built-in networks, Level3 among them, to
// seeded, skewed historical risk and population shares.
func builtinWorlds() []World {
	var worlds []World
	for k, name := range []string{"Sprint", "AT&T", "Level3", "NTT"} {
		net := datasets.NetworkByName(name)
		rng := stats.NewRNG(uint64(k + 1))
		n := len(net.PoPs)
		w := World{Net: net, Hist: make([]float64, n), Fractions: make([]float64, n)}
		sum := 0.0
		for i := 0; i < n; i++ {
			u := rng.Float64()
			w.Hist[i] = 0.02 * u * u * u
			w.Fractions[i] = 0.05 + rng.Float64()
			sum += w.Fractions[i]
		}
		for i := range w.Fractions {
			w.Fractions[i] /= sum
		}
		worlds = append(worlds, w)
	}
	return worlds
}

// TestSweepMatchesPrunedOracle holds every (scenario, world) measurement
// of an ensemble over built-in worlds to the prune-and-rebuild oracle bit
// for bit, with regional failures severing links on every world, and
// requires the report to be JSON-identical at 1, 2, 3 and 8 workers.
func TestSweepMatchesPrunedOracle(t *testing.T) {
	scenarios, err := Generate(Config{
		Seed: 5,
		Spec: []FamilySpec{
			{PerturbedTrack, 6}, {LineCut, 8}, {DiskOutage, 8}, {RegionalFailure, 100},
		},
		Replay:  sandyReplay(t),
		Perturb: DefaultPerturbation(),
	})
	if err != nil {
		t.Fatal(err)
	}
	worlds := builtinWorlds()
	params, rm := risk.PaperParams(), forecast.DefaultRiskModel()
	for wi := range worlds {
		w := &worlds[wi]
		pairs := samplePairs(w.Net, 5, 6)
		base, err := core.New(&risk.Context{Net: w.Net, Hist: w.Hist, Fractions: w.Fractions, Params: params}, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		severed, split := 0.0, 0.0
		for _, s := range scenarios {
			got, err := evalOne(s, w, base, pairs, rm)
			want, werr := oracleEvalOne(s, w, pairs, params, rm)
			if err != nil || werr != nil || !sameSample(got, want) {
				t.Fatalf("%s scenario %d (%s): %+v (err %v), oracle %+v (err %v)",
					w.Net.Name, s.ID, s.Family, got, err, want, werr)
			}
			severed, split = math.Max(severed, got.disabled), math.Max(split, got.unreachable)
		}
		if severed == 0 || split == 0 {
			t.Fatalf("%s: no regional failure severed links and split pairs (%v, %v)", w.Net.Name, severed, split)
		}
	}

	var baseline []byte
	for _, workers := range []int{1, 2, 3, 8} {
		rep, err := Sweep(scenarios, worlds, SweepConfig{Seed: 5, Params: params, Pairs: 6, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = buf
		} else if string(buf) != string(baseline) {
			t.Fatalf("workers=%d JSON differs from workers=1", workers)
		}
	}
}
