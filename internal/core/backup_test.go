package core

import (
	"math"
	"testing"
)

func TestFastReroutePlan(t *testing.T) {
	ctx := gridNet(4, 4, 61)
	e := mustEngine(t, ctx, Options{})
	primary, backups, err := e.FastReroutePlan(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(backups) != len(primary.Path)-1 {
		t.Fatalf("got %d backups for %d primary links", len(backups), len(primary.Path)-1)
	}
	for bi, b := range backups {
		if b.Path == nil {
			t.Errorf("backup %d: lattice should survive any single link failure", bi)
			continue
		}
		// The backup must avoid the failed link.
		for x := 1; x < len(b.Path); x++ {
			u, v := b.Path[x-1], b.Path[x]
			if (u == b.FailedLink.A && v == b.FailedLink.B) || (u == b.FailedLink.B && v == b.FailedLink.A) {
				t.Errorf("backup %d traverses its failed link", bi)
			}
		}
		// The backup can't beat the unconstrained optimum.
		if b.BitRiskMiles < primary.BitRiskMiles-1e-9 {
			t.Errorf("backup %d cheaper (%v) than primary (%v)", bi, b.BitRiskMiles, primary.BitRiskMiles)
		}
		if b.Path[0] != 0 || b.Path[len(b.Path)-1] != 15 {
			t.Errorf("backup %d endpoints wrong: %v", bi, b.Path)
		}
	}
}

func TestFastRerouteDisconnection(t *testing.T) {
	// A pure line: every failure disconnects the pair.
	ctx := horseshoeNet(2, 67)
	e := mustEngine(t, ctx, Options{})
	last := e.N() - 1
	primary, backups, err := e.FastReroutePlan(0, last)
	if err != nil {
		t.Fatal(err)
	}
	if len(backups) != len(primary.Path)-1 {
		t.Fatalf("backups = %d", len(backups))
	}
	for _, b := range backups {
		if b.Path != nil {
			t.Errorf("line topology: failure of %v should disconnect, got path %v", b.FailedLink, b.Path)
		}
		if !math.IsInf(b.BitRiskMiles, 1) {
			t.Errorf("disconnected backup should cost +Inf")
		}
	}
}

func TestDiversePaths(t *testing.T) {
	ctx := gridNet(3, 4, 71)
	e := mustEngine(t, ctx, Options{})
	paths := e.DiversePaths(0, 11, 4)
	if len(paths) < 2 {
		t.Fatalf("lattice should offer diverse paths, got %d", len(paths))
	}
	for i, p := range paths {
		if p.Path[0] != 0 || p.Path[len(p.Path)-1] != 11 {
			t.Errorf("path %d endpoints: %v", i, p.Path)
		}
		if i > 0 && p.BitRiskMiles < paths[i-1].BitRiskMiles-1e-9 {
			t.Errorf("paths not in increasing bit-risk order at %d", i)
		}
	}
	// First diverse path is the RiskRoute optimum.
	rr := e.RiskRoutePair(0, 11)
	if math.Abs(paths[0].BitRiskMiles-rr.BitRiskMiles) > 1e-9 {
		t.Errorf("first diverse path %v != optimum %v", paths[0].BitRiskMiles, rr.BitRiskMiles)
	}
}

func TestSLAConstrainedPair(t *testing.T) {
	ctx := gridNet(4, 4, 73)
	e := mustEngine(t, ctx, Options{})
	i, j := 0, 15
	sp := e.ShortestPair(i, j)
	rr := e.RiskRoutePair(i, j)

	// Zero stretch: must return the geographically shortest route's cost
	// class (any equal-length route is acceptable).
	tight, err := e.SLAConstrainedPair(i, j, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Miles > sp.Miles*1.0000001 {
		t.Errorf("zero-stretch miles %v exceed shortest %v", tight.Miles, sp.Miles)
	}
	if tight.BitRiskMiles > sp.BitRiskMiles+1e-9 {
		t.Errorf("zero-stretch should pick the best equal-length route: %v vs %v",
			tight.BitRiskMiles, sp.BitRiskMiles)
	}

	// Generous stretch: approaches the unconstrained optimum.
	loose, err := e.SLAConstrainedPair(i, j, 1.0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if loose.BitRiskMiles > rr.BitRiskMiles*1.02+1e-9 {
		t.Errorf("loose-stretch cost %v far above optimum %v", loose.BitRiskMiles, rr.BitRiskMiles)
	}
	// Budget respected.
	if loose.Miles > sp.Miles*2+1e-6 {
		t.Errorf("stretch budget violated: %v vs %v", loose.Miles, sp.Miles*2)
	}

	// Monotonicity: more stretch never costs more bit-risk.
	prev := math.Inf(1)
	for _, stretch := range []float64{0, 0.1, 0.3, 0.6, 1.0} {
		r, err := e.SLAConstrainedPair(i, j, stretch, 32)
		if err != nil {
			t.Fatal(err)
		}
		if r.BitRiskMiles > prev+1e-9 {
			t.Errorf("stretch %v: bit-risk %v rose above %v", stretch, r.BitRiskMiles, prev)
		}
		prev = r.BitRiskMiles
	}

	if _, err := e.SLAConstrainedPair(i, j, -0.1, 8); err == nil {
		t.Error("negative stretch accepted")
	}
}

func TestExportOSPFWeights(t *testing.T) {
	ctx := gridNet(4, 4, 79)
	e := mustEngine(t, ctx, Options{})
	export, err := e.ExportOSPFWeights()
	if err != nil {
		t.Fatal(err)
	}
	if len(export.Weights) != len(ctx.Net.Links) {
		t.Fatalf("exported %d weights for %d links", len(export.Weights), len(ctx.Net.Links))
	}
	for _, w := range export.Weights {
		if w.Weight < 1 || w.Weight > 65535 {
			t.Errorf("weight %d outside OSPF metric space", w.Weight)
		}
		if w.Risk < -1e-9 {
			t.Errorf("negative risk component %v", w.Risk)
		}
	}
	// The heaviest link maps to the top of the metric space.
	maxQ := 0
	for _, w := range export.Weights {
		if w.Weight > maxQ {
			maxQ = w.Weight
		}
	}
	if maxQ != 65535 {
		t.Errorf("max quantized weight = %d, want 65535", maxQ)
	}

	// Routing on the export agrees with exact α̅ routing almost everywhere.
	frac, err := e.VerifyOSPFExport(export, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frac > 0.02 {
		t.Errorf("%.1f%% of pairs diverge beyond tolerance", 100*frac)
	}
}

func TestExportOSPFWeightsRiskMatters(t *testing.T) {
	// With λ_h = 0 the export reduces to pure distance weights.
	ctx := gridNet(3, 3, 83)
	ctx.Params.LambdaH = 0
	ctx.Params.LambdaF = 0
	e := mustEngine(t, ctx, Options{})
	export, err := e.ExportOSPFWeights()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range export.Weights {
		if math.Abs(w.Risk) > 1e-9 {
			t.Errorf("λ=0 export has risk component %v", w.Risk)
		}
	}
}

func TestSLAConstrainedPairStretchDomain(t *testing.T) {
	e := mustEngine(t, gridNet(4, 4, 61), Options{})
	if _, err := e.SLAConstrainedPair(0, 15, math.NaN(), 16); err == nil {
		t.Error("NaN stretch accepted")
	}
	// An infinite stretch sets no budget: the minimum-risk path among the
	// searched ones, as any stretch wide enough to admit them all gives.
	unbounded, err := e.SLAConstrainedPair(0, 15, math.Inf(1), 16)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := e.SLAConstrainedPair(0, 15, 100, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !samePair(unbounded, wide) {
		t.Errorf("infinite stretch = %+v, stretch 100 = %+v", unbounded, wide)
	}
}

func TestVerifyOSPFExportNaNTolerance(t *testing.T) {
	e := mustEngine(t, gridNet(4, 4, 79), Options{})
	export, err := e.ExportOSPFWeights()
	if err != nil {
		t.Fatal(err)
	}
	// Hop-count metrics route many pairs well off the exact optimum.
	for k := range export.Weights {
		export.Weights[k].Weight = 1
	}
	want, err := e.VerifyOSPFExport(export, 0.01, 0)
	if err != nil || want == 0 {
		t.Fatalf("hop-count export: divergence %v, err %v", want, err)
	}
	got, err := e.VerifyOSPFExport(export, math.NaN(), 0)
	if err != nil || !sameBits(got, want) {
		t.Errorf("NaN tolerance: divergence %v (err %v), default tolerance %v", got, err, want)
	}
}
