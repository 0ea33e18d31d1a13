package riskroute_test

// Ablation benchmarks for the implementation's main design choices:
//
//   - α-quantization bucket count (accuracy/speed trade-off of sharing one
//     weighted graph per impact bucket instead of per-pair searches),
//   - hazard raster resolution (KDE field cell size),
//   - the robustness candidate-set threshold,
//   - the SLA search width (k-shortest enumeration depth).
//
// The companion accuracy checks live in TestAblation* below — benchmarks
// measure cost, tests pin that the cheap configurations stay close to the
// exact ones.

import (
	"fmt"
	"math"
	"testing"

	"riskroute"
)

func ablationEngine(tb testing.TB, network string, buckets int) *riskroute.Engine {
	tb.Helper()
	lab := benchWorldTB(tb)
	net := riskroute.BuiltinNetwork(network)
	asg, err := riskroute.AssignPopulation(lab.Census, net)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := &riskroute.Context{
		Net:       net,
		Hist:      lab.Model.PoPRisks(net),
		Fractions: asg.Fractions,
		Params:    riskroute.PaperParams(),
	}
	e, err := riskroute.NewEngine(ctx, riskroute.Options{AlphaBuckets: buckets})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// benchWorldTB adapts the shared bench world to testing.TB so the ablation
// tests can reuse it.
func benchWorldTB(tb testing.TB) *riskroute.Lab {
	tb.Helper()
	benchOnce.Do(func() {
		benchLab, benchErr = riskroute.NewLab(riskroute.LabConfig{
			CensusBlocks:        10000,
			EventScale:          0.2,
			MaxEventsPerCatalog: 8000,
			CellMiles:           25,
			AlphaBuckets:        12,
			ReplayStride:        10,
			CVCandidates:        8,
			CVMaxEvents:         600,
			Seed:                1,
		})
	})
	if benchErr != nil {
		tb.Fatalf("NewLab: %v", benchErr)
	}
	return benchLab
}

func BenchmarkAblationAlphaBuckets(b *testing.B) {
	for _, buckets := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			e := ablationEngine(b, "Level3", buckets)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Evaluate()
			}
		})
	}
}

func BenchmarkAblationExactPerPair(b *testing.B) {
	// The exact baseline the quantization replaces (per-pair Dijkstra) on a
	// mid-size Tier-1 network.
	e := ablationEngine(b, "Tinet", 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvaluateExact()
	}
}

func TestAblationAlphaBucketAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation accuracy is slow")
	}
	exact := ablationEngine(t, "Tinet", 16).EvaluateExact()
	for _, buckets := range []int{1, 4, 16, 64} {
		got := ablationEngine(t, "Tinet", buckets).Evaluate()
		diff := math.Abs(got.RiskReduction - exact.RiskReduction)
		// Even a single bucket should stay within a few points of exact;
		// 16+ buckets within half a point.
		limit := 0.05
		if buckets >= 16 {
			limit = 0.005
		}
		if diff > limit {
			t.Errorf("buckets=%d: rr %v vs exact %v (Δ %.4f > %.4f)",
				buckets, got.RiskReduction, exact.RiskReduction, diff, limit)
		}
	}
}

func BenchmarkAblationHazardResolution(b *testing.B) {
	sources := riskroute.SyntheticHazardSources(0.05, 1)
	for _, cell := range []float64{10, 20, 40} {
		b.Run(fmt.Sprintf("cellMiles=%.0f", cell), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := riskroute.FitHazard(sources, riskroute.HazardFitConfig{CellMiles: cell}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestAblationHazardResolutionAccuracy(t *testing.T) {
	sources := riskroute.SyntheticHazardSources(0.05, 1)
	fine, err := riskroute.FitHazard(sources, riskroute.HazardFitConfig{CellMiles: 10})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := riskroute.FitHazard(sources, riskroute.HazardFitConfig{CellMiles: 40})
	if err != nil {
		t.Fatal(err)
	}
	net := riskroute.BuiltinNetwork("Sprint")
	fr := fine.PoPRisks(net)
	cr := coarse.PoPRisks(net)
	// Coarsening must preserve the risk *ordering* of PoPs reasonably well:
	// check rank agreement of the riskiest quartile.
	topFine := topQuartile(fr)
	topCoarse := topQuartile(cr)
	common := 0
	for i := range topFine {
		if topFine[i] && topCoarse[i] {
			common++
		}
	}
	want := len(fr)/4 - 2
	if common < want {
		t.Errorf("risk-ranking overlap %d, want >= %d", common, want)
	}
}

func topQuartile(xs []float64) []bool {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if xs[idx[j]] > xs[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	out := make([]bool, n)
	for i := 0; i < n/4; i++ {
		out[idx[i]] = true
	}
	return out
}

func BenchmarkAblationCandidateThreshold(b *testing.B) {
	lab := benchWorldTB(b)
	net := riskroute.BuiltinNetwork("Tinet")
	asg, err := riskroute.AssignPopulation(lab.Census, net)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &riskroute.Context{
		Net:       net,
		Hist:      lab.Model.PoPRisks(net),
		Fractions: asg.Fractions,
		Params:    riskroute.Params{LambdaH: 1e5},
	}
	for _, rule := range []float64{0.5, 0.35, 0.25} {
		b.Run(fmt.Sprintf("reduction=%.2f", rule), func(b *testing.B) {
			e, err := riskroute.NewEngine(ctx, riskroute.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.BestAdditionalLink(rule); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationSLASearchWidth(b *testing.B) {
	e := ablationEngine(b, "Level3", 16)
	net := riskroute.BuiltinNetwork("Level3")
	src, dst := net.PoPIndex("Houston"), net.PoPIndex("Boston")
	for _, width := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.SLAConstrainedPair(src, dst, 0.3, width); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestAblationSLAWidthConvergence(t *testing.T) {
	e := ablationEngine(t, "Sprint", 16)
	net := riskroute.BuiltinNetwork("Sprint")
	src, dst := net.PoPIndex("Seattle"), net.PoPIndex("Miami")
	prev := math.Inf(1)
	for _, width := range []int{2, 8, 32} {
		r, err := e.SLAConstrainedPair(src, dst, 0.5, width)
		if err != nil {
			t.Fatal(err)
		}
		if r.BitRiskMiles > prev+1e-9 {
			t.Errorf("width %d: cost %v rose above %v", width, r.BitRiskMiles, prev)
		}
		prev = r.BitRiskMiles
	}
}
