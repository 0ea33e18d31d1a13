package hazard

import (
	"math"
	"slices"
	"strings"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/kde"
	"riskroute/internal/topology"
)

// smallSources builds reduced-size synthetic catalogs with the paper's
// bandwidths so tests stay fast.
func smallSources(t *testing.T) []Source {
	t.Helper()
	var out []Source
	for _, et := range datasets.EventTypes {
		out = append(out, Source{
			Name:      et.String(),
			Events:    datasets.GenerateEvents(et, 400, 7),
			Bandwidth: et.PaperBandwidth(),
		})
	}
	return out
}

func TestFitAndRiskAt(t *testing.T) {
	m, err := Fit(smallSources(t), FitConfig{CellMiles: 30})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if len(m.Sources) != 5 {
		t.Fatalf("fitted %d sources, want 5", len(m.Sources))
	}
	for _, s := range m.Sources {
		if s.Bandwidth <= 0 || s.Events != 400 {
			t.Errorf("source %s: bandwidth %v events %d", s.Name, s.Bandwidth, s.Events)
		}
	}

	// Aggregate risk is the sum of the sources.
	p := geo.Point{Lat: 30.0, Lon: -90.0} // New Orleans area
	sum := 0.0
	for _, s := range m.Sources {
		sum += m.SourceRiskAt(s.Name, p)
	}
	if got := m.RiskAt(p); math.Abs(got-sum) > 1e-9 {
		t.Errorf("RiskAt = %v, sum of sources = %v", got, sum)
	}
	if m.RiskAt(p) <= 0 {
		t.Error("Gulf coast risk should be positive")
	}
}

func TestRiskGeographyMatchesFigure4(t *testing.T) {
	m, err := Fit(smallSources(t), FitConfig{CellMiles: 30})
	if err != nil {
		t.Fatal(err)
	}
	gulf := geo.Point{Lat: 30.0, Lon: -90.1}     // New Orleans
	plains := geo.Point{Lat: 35.5, Lon: -97.5}   // Oklahoma City
	westCoast := geo.Point{Lat: 34.1, Lon: -118} // Los Angeles
	northRockies := geo.Point{Lat: 46.9, Lon: -110.0}

	if h := m.SourceRiskAt("FEMA Hurricane", gulf); h <= m.SourceRiskAt("FEMA Hurricane", westCoast) {
		t.Error("hurricane risk should concentrate on the Gulf, not the west coast")
	}
	if tor := m.SourceRiskAt("FEMA Tornado", plains); tor <= m.SourceRiskAt("FEMA Tornado", westCoast) {
		t.Error("tornado risk should concentrate in the plains")
	}
	if eq := m.SourceRiskAt("NOAA Earthquake", westCoast); eq <= m.SourceRiskAt("NOAA Earthquake", gulf) {
		t.Error("earthquake risk should concentrate on the west coast")
	}
	if m.RiskAt(northRockies) >= m.RiskAt(gulf) {
		t.Error("northern Rockies should be lower aggregate risk than the Gulf coast")
	}
}

func TestRiskScaleMagnitude(t *testing.T) {
	// The calibration argument: risky-area values should land roughly in
	// [0.01, 10] risk units so λ_h = 1e5 trades off against mile distances.
	m, err := Fit(smallSources(t), FitConfig{CellMiles: 30})
	if err != nil {
		t.Fatal(err)
	}
	hot := m.RiskAt(geo.Point{Lat: 30.0, Lon: -90.1})
	if hot < 0.01 || hot > 50 {
		t.Errorf("hot-zone risk = %v, outside the calibrated magnitude range", hot)
	}
}

func TestFitCrossValidation(t *testing.T) {
	// A source with zero bandwidth goes through CV over kde's default
	// candidates, 25 log-spaced values in [1, 1000] miles.
	events := datasets.GenerateEvents(datasets.FEMAHurricane, 300, 3)
	m, err := Fit([]Source{{Name: "cv", Events: events}}, FitConfig{CellMiles: 40})
	if err != nil {
		t.Fatal(err)
	}
	bw := m.Sources[0].Bandwidth
	if !slices.Contains(kde.LogGrid(1, 1000, 25), bw) {
		t.Errorf("CV bandwidth %v not among kde's default candidates", bw)
	}
	if bw >= 400 {
		t.Errorf("CV picked a degenerate %v-mile bandwidth for coastal hurricane data", bw)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]Source{{Name: "empty"}}, FitConfig{}); err == nil {
		t.Error("empty source should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("no sources should panic")
		}
	}()
	Fit(nil, FitConfig{})
}

func TestSourceRiskAtUnknownPanics(t *testing.T) {
	m, err := Fit(smallSources(t), FitConfig{CellMiles: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown source should panic")
		}
	}()
	m.SourceRiskAt("nope", geo.Point{})
}

func TestPoPRisks(t *testing.T) {
	m, err := Fit(smallSources(t), FitConfig{CellMiles: 30})
	if err != nil {
		t.Fatal(err)
	}
	n := &topology.Network{
		Name: "Pair",
		Tier: topology.Tier1,
		PoPs: []topology.PoP{
			{Name: "New Orleans", Location: geo.Point{Lat: 29.95, Lon: -90.07}},
			{Name: "Helena", Location: geo.Point{Lat: 46.59, Lon: -112.04}},
		},
		Links: []topology.Link{{A: 0, B: 1}},
	}
	risks := m.PoPRisks(n)
	if len(risks) != 2 {
		t.Fatalf("PoPRisks len = %d", len(risks))
	}
	if risks[0] <= risks[1] {
		t.Errorf("New Orleans risk %v should exceed Helena %v", risks[0], risks[1])
	}
	mean := m.MeanPoPRisk(n)
	if math.Abs(mean-(risks[0]+risks[1])/2) > 1e-12 {
		t.Errorf("MeanPoPRisk = %v", mean)
	}
}

func TestAdaptiveGridResolution(t *testing.T) {
	// The 3.59-mile wind bandwidth must get a much finer grid than the
	// 298-mile earthquake bandwidth.
	m, err := Fit([]Source{
		{Name: "wind", Events: datasets.GenerateEvents(datasets.NOAAWind, 500, 1), Bandwidth: 3.59},
		{Name: "quake", Events: datasets.GenerateEvents(datasets.NOAAEarthquake, 500, 1), Bandwidth: 298.82},
	}, FitConfig{CellMiles: 20})
	if err != nil {
		t.Fatal(err)
	}
	windCells := m.Sources[0].Field.Grid.Size()
	quakeCells := m.Sources[1].Field.Grid.Size()
	if windCells <= quakeCells {
		t.Errorf("wind grid (%d cells) should be finer than quake grid (%d)", windCells, quakeCells)
	}
}

func TestCombinedField(t *testing.T) {
	m, err := Fit(smallSources(t), FitConfig{CellMiles: 40})
	if err != nil {
		t.Fatal(err)
	}
	grid := geo.NewGrid(geo.ContinentalUS, 10, 20)
	f := m.CombinedField(grid)
	if f.Max() <= 0 {
		t.Error("combined field should have positive values")
	}
	p := grid.CellCenter(3, 10)
	if math.Abs(f.Values[grid.Index(3, 10)]-m.RiskAt(p)) > 1e-9 {
		t.Error("combined field cell disagrees with RiskAt")
	}
}

func TestFitSourceNamesPreserved(t *testing.T) {
	srcs := smallSources(t)
	m, err := Fit(srcs, FitConfig{CellMiles: 40})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range m.Sources {
		if !strings.Contains(s.Name, strings.Split(srcs[i].Name, " ")[0]) {
			t.Errorf("source %d name %q", i, s.Name)
		}
	}
}

func BenchmarkRiskAt(b *testing.B) {
	var sources []Source
	for _, et := range datasets.EventTypes {
		sources = append(sources, Source{
			Name:      et.String(),
			Events:    datasets.GenerateEvents(et, 1000, 7),
			Bandwidth: et.PaperBandwidth(),
		})
	}
	m, err := Fit(sources, FitConfig{})
	if err != nil {
		b.Fatal(err)
	}
	p := geo.Point{Lat: 35, Lon: -95}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RiskAt(p)
	}
}

func TestLinkRisks(t *testing.T) {
	m, err := Fit(smallSources(t), FitConfig{CellMiles: 30})
	if err != nil {
		t.Fatal(err)
	}
	// One span crossing the Gulf hot zone, one crossing the quiet Rockies.
	n := &topology.Network{
		Name: "Spans", Tier: topology.Tier1,
		PoPs: []topology.PoP{
			{Name: "Houston", Location: geo.Point{Lat: 29.76, Lon: -95.37}},
			{Name: "Jacksonville", Location: geo.Point{Lat: 30.33, Lon: -81.66}},
			{Name: "Boise", Location: geo.Point{Lat: 43.62, Lon: -116.21}},
			{Name: "Billings", Location: geo.Point{Lat: 45.78, Lon: -108.50}},
		},
		Links: []topology.Link{{A: 0, B: 1}, {A: 2, B: 3}, {A: 1, B: 2}},
	}
	risks := m.LinkRisks(n, 8)
	if len(risks) != 3 {
		t.Fatalf("got %d link risks", len(risks))
	}
	if risks[0] <= risks[1] {
		t.Errorf("Gulf span risk %v should exceed northern Rockies span %v", risks[0], risks[1])
	}
	for _, r := range risks {
		if r < 0 {
			t.Error("negative span risk")
		}
	}
	// More samples converge to a similar value (smooth fields).
	fine := m.LinkRisks(n, 64)
	if math.Abs(fine[0]-risks[0]) > risks[0]*0.5 {
		t.Errorf("sampling unstable: %v vs %v", fine[0], risks[0])
	}
}
