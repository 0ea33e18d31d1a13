package hazard

import (
	"errors"
	"math"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/resilience"
)

// coarseSources mirrors smallSources but with fewer events; the degraded-mode
// tests fit the model repeatedly and only care about structure, not accuracy.
func coarseSources(t *testing.T) []Source {
	t.Helper()
	var out []Source
	for _, et := range datasets.EventTypes {
		out = append(out, Source{
			Name:      et.String(),
			Events:    datasets.GenerateEvents(et, 150, 7),
			Bandwidth: et.PaperBandwidth(),
		})
	}
	return out
}

// TestFitLenientEachLayerKnockedOut injects a fault into each of the five
// catalogs in turn: the lenient fit must drop exactly that layer, record it,
// and re-normalize the survivors by 5/4.
func TestFitLenientEachLayerKnockedOut(t *testing.T) {
	sources := coarseSources(t)
	p := geo.Point{Lat: 30.0, Lon: -90.0}
	for i := range sources {
		i := i
		t.Run(sources[i].Name, func(t *testing.T) {
			inj := resilience.NewInjector(1).
				EnableKeys(resilience.PointKDEFit, resilience.ForceError, uint64(i))
			h := resilience.NewHealth()
			m, err := Fit(sources, FitConfig{
				CellMiles: 60,
				Lenient:   true,
				Injector:  inj,
				Health:    h,
			})
			if err != nil {
				t.Fatalf("lenient fit failed: %v", err)
			}
			if len(m.Sources) != 4 || len(m.Lost) != 1 || m.Lost[0] != sources[i].Name {
				t.Fatalf("fitted %d sources, lost %v; want 4 with %q lost",
					len(m.Sources), m.Lost, sources[i].Name)
			}
			if got, want := m.Renorm(), 5.0/4.0; math.Abs(got-want) > 1e-12 {
				t.Errorf("Renorm = %v, want %v", got, want)
			}
			// The aggregate stays the re-normalized sum of the survivors.
			sum := 0.0
			for _, s := range m.Sources {
				sum += m.SourceRiskAt(s.Name, p)
			}
			if got := m.RiskAt(p); math.Abs(got-sum*m.Renorm()) > 1e-9 {
				t.Errorf("RiskAt = %v, want renormalized survivor sum %v", got, sum*m.Renorm())
			}
			// Unit weights are the same aggregate, renorm included, bit for bit.
			if got, want := m.WeightedRiskAt(p, nil), m.RiskAt(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("WeightedRiskAt(p, nil) = %v, want RiskAt %v", got, want)
			}
			if !h.Degraded() {
				t.Error("layer loss not recorded in health")
			}
			if lost := h.Lost("hazard"); len(lost) == 0 {
				t.Errorf("health reports no hazard losses:\n%s", h)
			}
		})
	}
}

// TestFitStrictInjectedFault checks the same fault fails the whole fit when
// not lenient, surfacing as an injected error.
func TestFitStrictInjectedFault(t *testing.T) {
	inj := resilience.NewInjector(1).
		EnableKeys(resilience.PointKDEFit, resilience.ForceError, 2)
	_, err := Fit(coarseSources(t), FitConfig{CellMiles: 60, Injector: inj})
	if !errors.Is(err, resilience.ErrInjected) {
		t.Errorf("strict fit returned %v, want ErrInjected", err)
	}
}

// TestFitLenientTooFewEventsForCV checks a catalog too small for bandwidth
// cross-validation degrades instead of panicking inside the kde package.
func TestFitLenientTooFewEventsForCV(t *testing.T) {
	sources := []Source{
		{Name: "tiny", Events: datasets.GenerateEvents(datasets.FEMAStorm, 4, 1)}, // CV needs 2×5
		{Name: "ok", Events: datasets.GenerateEvents(datasets.FEMAHurricane, 150, 1), Bandwidth: 100},
	}
	h := resilience.NewHealth()
	m, err := Fit(sources, FitConfig{CellMiles: 60, Lenient: true, Health: h})
	if err != nil {
		t.Fatalf("lenient fit failed: %v", err)
	}
	if len(m.Sources) != 1 || len(m.Lost) != 1 || m.Lost[0] != "tiny" {
		t.Fatalf("sources %d lost %v, want the tiny catalog dropped", len(m.Sources), m.Lost)
	}
	// Strict mode errors on the same input rather than panicking.
	if _, err := Fit(sources, FitConfig{CellMiles: 60}); err == nil {
		t.Error("strict fit accepted a catalog below the CV minimum")
	}
}

// TestFitLenientAllFail checks total layer loss is a DegradedError naming the
// stage and the lost layers.
func TestFitLenientAllFail(t *testing.T) {
	inj := resilience.NewInjector(1).Enable(resilience.PointKDEFit, resilience.ForceError, 1)
	h := resilience.NewHealth()
	_, err := Fit(coarseSources(t), FitConfig{CellMiles: 60, Lenient: true, Injector: inj, Health: h})
	if !errors.Is(err, resilience.ErrDegraded) {
		t.Fatalf("total loss returned %v, want ErrDegraded", err)
	}
	var de *resilience.DegradedError
	if !errors.As(err, &de) || de.Stage != "hazard" || len(de.Lost) != 5 {
		t.Errorf("DegradedError = %+v, want stage hazard with 5 layers lost", de)
	}
}
