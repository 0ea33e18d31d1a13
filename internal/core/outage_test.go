package core

import (
	"math"
	"testing"
)

func TestSimulateOutageNoFailures(t *testing.T) {
	ctx := gridNet(3, 4, 91)
	e := mustEngine(t, ctx, Options{})
	impact, err := e.SimulateOutage(nil)
	if err != nil {
		t.Fatal(err)
	}
	if impact.FailedPoPs != 0 || impact.DisconnectedPairs != 0 || impact.ReroutedPairs != 0 {
		t.Errorf("no-failure impact: %+v", impact)
	}
	if impact.TotalPairs != 12*11/2 {
		t.Errorf("TotalPairs = %d", impact.TotalPairs)
	}
	if impact.StrandedPopulation != 0 {
		t.Errorf("stranded = %v", impact.StrandedPopulation)
	}
}

func TestSimulateOutageInteriorNode(t *testing.T) {
	// Failing one interior lattice node reroutes its neighbors' pairs but
	// disconnects nothing.
	ctx := gridNet(3, 3, 93)
	e := mustEngine(t, ctx, Options{})
	impact, err := e.SimulateOutage([]int{4}) // center of the 3x3 grid
	if err != nil {
		t.Fatal(err)
	}
	if impact.FailedPoPs != 1 || impact.SurvivingPoPs != 8 {
		t.Errorf("counts: %+v", impact)
	}
	if impact.DisconnectedPairs != 0 {
		t.Errorf("lattice minus center should stay connected: %+v", impact)
	}
	if impact.ReroutedPairs == 0 || impact.MeanDetourMiles <= 0 {
		t.Errorf("center failure should force detours: %+v", impact)
	}
	// Only the failed PoP's population is stranded.
	if math.Abs(impact.StrandedPopulation-ctx.Fractions[4]) > 1e-12 {
		t.Errorf("stranded %v, want %v", impact.StrandedPopulation, ctx.Fractions[4])
	}
}

func TestSimulateOutagePartition(t *testing.T) {
	// Failing the base of the horseshoe splits the two arms.
	ctx := horseshoeNet(3, 97)
	e := mustEngine(t, ctx, Options{})
	base := 3 // the middle node
	impact, err := e.SimulateOutage([]int{base})
	if err != nil {
		t.Fatal(err)
	}
	if impact.DisconnectedPairs != 9 { // 3 west x 3 east
		t.Errorf("disconnected pairs = %d, want 9 (%+v)", impact.DisconnectedPairs, impact)
	}
	// One arm survives as the giant component; the failed base plus the
	// other arm are stranded. With equal arm sizes the west arm (found
	// first) wins the tie, stranding the base (index 3) and the east arm.
	wantStranded := ctx.Fractions[3] + ctx.Fractions[4] + ctx.Fractions[5] + ctx.Fractions[6]
	if math.Abs(impact.StrandedPopulation-wantStranded) > 1e-9 {
		t.Errorf("stranded %v, want %v", impact.StrandedPopulation, wantStranded)
	}
}

func TestSimulateOutageValidation(t *testing.T) {
	ctx := gridNet(3, 3, 99)
	e := mustEngine(t, ctx, Options{})
	if _, err := e.SimulateOutage([]int{99}); err == nil {
		t.Error("out-of-range failure accepted")
	}
	if _, err := e.SimulateOutage([]int{1, 1}); err == nil {
		t.Error("duplicate failure accepted")
	}
}

func TestGravityImpactRouting(t *testing.T) {
	// An engine with a custom impact function must respect it in Alpha and
	// keep ratios in range.
	ctx := gridNet(3, 4, 101)
	n := len(ctx.Fractions)
	// Synthetic "traffic matrix": heavy between corners, light elsewhere.
	ctx.Impact = func(i, j int) float64 {
		if (i == 0 && j == n-1) || (i == n-1 && j == 0) {
			return 1.0
		}
		return 0.01
	}
	e := mustEngine(t, ctx, Options{AlphaBuckets: 16})
	if got := e.Ctx.Alpha(0, n-1); got != 1.0 {
		t.Errorf("Alpha override = %v", got)
	}
	r := e.Evaluate()
	if r.RiskReduction < 0 || r.RiskReduction >= 1 {
		t.Errorf("rr = %v", r.RiskReduction)
	}
	// The heavy pair routes more risk-aversely than under a tiny impact.
	heavy := e.RiskRoutePair(0, n-1)
	light := e.RiskRoutePair(1, n-2)
	if heavy.Path == nil || light.Path == nil {
		t.Fatal("missing paths")
	}

	// Negative impact is rejected at engine construction.
	ctx2 := gridNet(3, 3, 103)
	ctx2.Impact = func(i, j int) float64 { return -1 }
	if _, err := New(ctx2, Options{}); err == nil {
		t.Error("negative impact accepted")
	}
}
