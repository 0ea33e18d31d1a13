package riskroute_test

// One benchmark per table and figure of the paper's evaluation section,
// plus end-to-end pipeline benches. Each benchmark regenerates its
// experiment against a shared moderate-scale world (the full paper-scale
// run lives in cmd/experiments; a bench iteration must fit in seconds).
// Run with:
//
//	go test -bench=. -benchmem

import (
	"sync"
	"testing"

	"riskroute"
)

var (
	benchOnce sync.Once
	benchLab  *riskroute.Lab
	benchErr  error
)

func benchWorld(b *testing.B) *riskroute.Lab {
	b.Helper()
	return benchWorldTB(b) // shared with the ablation suite
}

func BenchmarkTable1KernelBandwidths(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Tier1Ratios(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Characteristics(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1InfrastructureMaps(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2PeeringMesh(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3PopulationAssignment(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4RiskSurfaces(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5ForecastSnapshots(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6StormScopes(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7HoustonBoston(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8RegionalScatter(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9BestLinksTinet(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure9("Tinet", 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10LinkDecay(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure10(4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11BestPeerings(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12Tier1Replay(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure12("Katrina"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13RegionalReplay(b *testing.B) {
	lab := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure13("Katrina"); err != nil {
			b.Fatal(err)
		}
	}
}

// Pipeline micro-benches: the building blocks downstream users pay for.

func BenchmarkPipelineHazardFit(b *testing.B) {
	sources := riskroute.SyntheticHazardSources(0.05, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := riskroute.FitHazard(sources, riskroute.HazardFitConfig{CellMiles: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineAssignLevel3(b *testing.B) {
	lab := benchWorld(b)
	net := riskroute.BuiltinNetwork("Level3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := riskroute.AssignPopulation(lab.Census, net); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineEvaluateLevel3(b *testing.B) {
	lab := benchWorld(b)
	net := riskroute.BuiltinNetwork("Level3")
	e, err := lab.EngineFor(net, riskroute.PaperParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate()
	}
}

func BenchmarkPipelineRiskRoutePairLevel3(b *testing.B) {
	lab := benchWorld(b)
	net := riskroute.BuiltinNetwork("Level3")
	e, err := lab.EngineFor(net, riskroute.PaperParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	n := len(net.PoPs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RiskRoutePair(i%n, (i*37+11)%n)
	}
}

// BenchmarkPipelineShortestPairLevel3 walks RiskRoutePair's pairs through
// ShortestPair, the α = 0 baseline of Equations 5 and 6.
func BenchmarkPipelineShortestPairLevel3(b *testing.B) {
	lab := benchWorld(b)
	net := riskroute.BuiltinNetwork("Level3")
	e, err := lab.EngineFor(net, riskroute.PaperParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	n := len(net.PoPs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ShortestPair(i%n, (i*37+11)%n)
	}
}

// BenchmarkFastReroutePlan protects every link of Level3's Houston→Boston
// RiskRoute path: one detour search per failed link.
func BenchmarkFastReroutePlan(b *testing.B) {
	lab := benchWorld(b)
	net := riskroute.BuiltinNetwork("Level3")
	e, err := lab.EngineFor(net, riskroute.PaperParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	src, dst := net.PoPIndex("Houston"), net.PoPIndex("Boston")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.FastReroutePlan(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateOutage fails the Level3 PoPs under Hurricane Katrina's
// tropical-storm-force or stronger winds, as `riskroute outage -tropical`
// does, and measures the surviving topology.
func BenchmarkSimulateOutage(b *testing.B) {
	lab := benchWorld(b)
	net := riskroute.BuiltinNetwork("Level3")
	e, err := lab.EngineFor(net, riskroute.PaperParams(), nil)
	if err != nil {
		b.Fatal(err)
	}
	replay, err := riskroute.LoadHurricaneReplay(riskroute.HurricaneByName("Katrina"))
	if err != nil {
		b.Fatal(err)
	}
	scope := riskroute.ScopeOf(replay)
	var failed []int
	for i, p := range net.PoPs {
		if c := scope.Classify(p.Location); c == riskroute.HurricaneForceScope || c == riskroute.TropicalForceScope {
			failed = append(failed, i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SimulateOutage(failed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineAdvisoryRoundTrip(b *testing.B) {
	corpus := riskroute.AdvisoryCorpus(riskroute.HurricaneByName("Sandy"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := riskroute.ParseAdvisory(corpus[i%len(corpus)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineCompositeBuild(b *testing.B) {
	nets := riskroute.BuiltinNetworks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := riskroute.BuildComposite(nets, riskroute.BuiltinPeered); err != nil {
			b.Fatal(err)
		}
	}
}
