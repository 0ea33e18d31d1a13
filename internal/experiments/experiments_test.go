package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"riskroute/internal/datasets"
)

// testLab builds one reduced-scale lab shared by all experiment tests (the
// full-scale world is exercised by cmd/experiments and the benchmarks).
var (
	labOnce sync.Once
	lab     *Lab
	labErr  error
)

func testLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		lab, labErr = NewLab(Config{
			CensusBlocks:        4000,
			EventScale:          0.05,
			MaxEventsPerCatalog: 2000,
			CellMiles:           35,
			AlphaBuckets:        8,
			ReplayStride:        20,
			CVCandidates:        6,
			CVMaxEvents:         400,
			Seed:                1,
		})
	})
	if labErr != nil {
		t.Fatalf("NewLab: %v", labErr)
	}
	return lab
}

// TestNewLabRejectsSmallCensus: a census block budget below the
// generator's floor is an error naming the floor, not a panic.
func TestNewLabRejectsSmallCensus(t *testing.T) {
	floor := strconv.Itoa(datasets.MinCensusBlocks)
	if _, err := NewLab(Config{CensusBlocks: 100}); err == nil || !strings.Contains(err.Error(), floor) {
		t.Fatalf("NewLab with 100 blocks: %v, want an error naming %s", err, floor)
	}
}

// TestNewLabRejectsNegativeStride: a negative replay stride would index
// before the first advisory; only 0 means the default, so NewLab refuses it
// before building anything.
func TestNewLabRejectsNegativeStride(t *testing.T) {
	_, err := NewLab(Config{CensusBlocks: 4000, EventScale: 0.03, CellMiles: 60, ReplayStride: -1})
	if err == nil || !strings.Contains(err.Error(), "stride") {
		t.Fatalf("NewLab with stride -1: %v, want an error naming the stride", err)
	}
}

func TestLabWorld(t *testing.T) {
	l := testLab(t)
	if len(l.Networks) != 23 || len(l.Tier1) != 7 || len(l.Regional) != 16 {
		t.Fatalf("world: %d networks (%d tier-1, %d regional)",
			len(l.Networks), len(l.Tier1), len(l.Regional))
	}
	if len(l.Model.Sources) != 5 {
		t.Fatalf("model has %d sources", len(l.Model.Sources))
	}
	if l.NetworkByName("Level3") == nil || l.NetworkByName("nope") != nil {
		t.Error("NetworkByName misbehaving")
	}
	if got := len(l.RegionalNames()); got != 16 {
		t.Errorf("RegionalNames = %d", got)
	}
}

func TestTable1(t *testing.T) {
	l := testLab(t)
	r, err := l.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.FittedBandwidth <= 0 {
			t.Errorf("%s: fitted bandwidth %v", row.Event, row.FittedBandwidth)
		}
	}
	// At test scale (tiny subsampled catalogs) the fitted values are only
	// sanity-checked against the search range; the full-scale Table 1 run
	// in cmd/experiments exercises the paper-size catalogs.
	for _, row := range r.Rows {
		if row.FittedBandwidth < 2 || row.FittedBandwidth > 600 {
			t.Errorf("%s: bandwidth %v outside search grid", row.Event, row.FittedBandwidth)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FEMA Hurricane") {
		t.Error("render missing catalog name")
	}
}

func TestTable2(t *testing.T) {
	l := testLab(t)
	r, err := l.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Table 2's headline trend: more risk-averseness, more reduction
		// and more distance.
		if row.RiskReduction6 < row.RiskReduction5-1e-9 {
			t.Errorf("%s: rr fell from %v to %v as λ grew", row.Network, row.RiskReduction5, row.RiskReduction6)
		}
		if row.DistanceIncrease6 < row.DistanceIncrease5-1e-9 {
			t.Errorf("%s: dr fell from %v to %v as λ grew", row.Network, row.DistanceIncrease5, row.DistanceIncrease6)
		}
		if row.RiskReduction5 < 0 || row.RiskReduction5 >= 1 {
			t.Errorf("%s: rr5 = %v out of range", row.Network, row.RiskReduction5)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable2(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Level3") {
		t.Error("render missing Level3")
	}
}

func TestTable3(t *testing.T) {
	l := testLab(t)
	r, err := l.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 || len(r.Evaluations) != 16 {
		t.Fatalf("rows=%d evals=%d", len(r.Rows), len(r.Evaluations))
	}
	for _, row := range r.Rows {
		if row.RiskR2 < 0 || row.RiskR2 > 1 || row.DistanceR2 < 0 || row.DistanceR2 > 1 {
			t.Errorf("%s: R² out of range: %v / %v", row.Characteristic, row.RiskR2, row.DistanceR2)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable3(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Geographic Footprint") {
		t.Error("render missing characteristic")
	}
}

func TestFigure1(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Tier1PoPs != 354 || r.RegionalPoPs != 455 {
		t.Errorf("PoP totals = %d / %d, want 354 / 455", r.Tier1PoPs, r.RegionalPoPs)
	}
	if !strings.Contains(r.Tier1Map, "o") {
		t.Error("tier-1 map has no marks")
	}
	var buf bytes.Buffer
	if err := RenderFigure1(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure2(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PeersByNetwork) != 23 {
		t.Errorf("peers map covers %d networks", len(r.PeersByNetwork))
	}
	var buf bytes.Buffer
	if err := RenderFigure2(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Telepak") {
		t.Error("render missing Telepak")
	}
}

func TestFigure3(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if r.ExampleNetwork != "Teliasonera" || len(r.Served) == 0 {
		t.Fatalf("unexpected result %+v", r)
	}
	// A major hub must dominate Teliasonera's served population (Chicago
	// captures the whole midwest under nearest-neighbor assignment; New
	// York splits its metro with the Newark PoP).
	if r.TopPoP != "New York" && r.TopPoP != "Chicago" && r.TopPoP != "Dallas" {
		t.Errorf("top PoP = %s, want a major hub", r.TopPoP)
	}
	if r.Served["New York"] <= r.Served["Denver"] {
		t.Errorf("New York (%v) should outserve Denver (%v)", r.Served["New York"], r.Served["Denver"])
	}
	var buf bytes.Buffer
	if err := RenderFigure3(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure4(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Maps) != 5 {
		t.Fatalf("maps = %d", len(r.Maps))
	}
	// Peak sanity: hurricanes peak in the south, earthquakes in the west.
	if p := r.PeakLocations["FEMA Hurricane"]; p.Lat > 36 {
		t.Errorf("hurricane peak at %v, want southern", p)
	}
	if p := r.PeakLocations["NOAA Earthquake"]; p.Lon > -100 {
		t.Errorf("earthquake peak at %v, want western", p)
	}
	var buf bytes.Buffer
	if err := RenderFigure4(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure5(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshots) != 3 {
		t.Fatalf("snapshots = %d", len(r.Snapshots))
	}
	// The storm moves north over the advisory sequence.
	if r.Snapshots[0].Center.Lat >= r.Snapshots[2].Center.Lat {
		t.Errorf("Irene should travel north: %v -> %v",
			r.Snapshots[0].Center, r.Snapshots[2].Center)
	}
	var buf bytes.Buffer
	if err := RenderFigure5(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure6(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byStorm := map[string]Figure6Row{}
	for _, row := range r.Rows {
		byStorm[row.Storm] = row
		if row.TropicalPoPs < row.HurricanePoPs {
			t.Errorf("%s: tropical %d < hurricane %d", row.Storm, row.TropicalPoPs, row.HurricanePoPs)
		}
	}
	// Paper: Katrina touches far fewer Tier-1 PoPs (8) than Irene (86) or
	// Sandy (115): the corpus is east-coast heavy.
	if byStorm["Katrina"].HurricanePoPs >= byStorm["Sandy"].HurricanePoPs {
		t.Errorf("Katrina PoPs %d should be far below Sandy %d",
			byStorm["Katrina"].HurricanePoPs, byStorm["Sandy"].HurricanePoPs)
	}
	if byStorm["Katrina"].HurricanePoPs >= byStorm["Irene"].HurricanePoPs {
		t.Errorf("Katrina PoPs %d should be below Irene %d",
			byStorm["Katrina"].HurricanePoPs, byStorm["Irene"].HurricanePoPs)
	}
	var buf bytes.Buffer
	if err := RenderFigure6(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure7(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Routes) != 2 {
		t.Fatalf("routes = %d", len(r.Routes))
	}
	for _, route := range r.Routes {
		if route.RiskCost.BitRiskMiles > route.ShortestCost.BitRiskMiles+1e-6 {
			t.Errorf("λ=%v: riskroute bit-risk above shortest", route.LambdaH)
		}
		if route.Shortest[0] != "Houston" || route.Shortest[len(route.Shortest)-1] != "Boston" {
			t.Errorf("shortest endpoints: %v", route.Shortest)
		}
	}
	// More risk-averse routing must not shorten the path.
	if r.Routes[1].RiskCost.Miles < r.Routes[0].RiskCost.Miles-1e-6 {
		t.Errorf("λ=1e5 route (%v mi) shorter than λ=1e4 (%v mi)",
			r.Routes[1].RiskCost.Miles, r.Routes[0].RiskCost.Miles)
	}
	var buf bytes.Buffer
	if err := RenderFigure7(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure8(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Evaluations) != 16 {
		t.Fatalf("evaluations = %d", len(r.Evaluations))
	}
	for _, e := range r.Evaluations {
		if e.RiskReduction < 0 || e.RiskReduction >= 1 {
			t.Errorf("%s rr = %v", e.Network, e.RiskReduction)
		}
	}
	if !strings.Contains(r.Plot, "risk reduction ratio") {
		t.Error("plot missing axis label")
	}
	var buf bytes.Buffer
	if err := RenderFigure8(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure9(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure9("Tinet", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) == 0 {
		t.Fatal("no suggested links")
	}
	prev := 1.0
	for _, link := range r.Links {
		if link.Fraction > prev+1e-9 {
			t.Errorf("fractions should be non-increasing: %v after %v", link.Fraction, prev)
		}
		prev = link.Fraction
	}
	if _, err := l.Figure9("NoSuchNet", 3); err == nil {
		t.Error("unknown network accepted")
	}
	var buf bytes.Buffer
	if err := RenderFigure9(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure10(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure10(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fractions) != 7 {
		t.Fatalf("networks = %d", len(r.Fractions))
	}
	for name, fr := range r.Fractions {
		if len(fr) == 0 {
			t.Errorf("%s: no additions", name)
			continue
		}
		if fr[len(fr)-1] >= 1 {
			t.Errorf("%s: final fraction %v, want < 1", name, fr[len(fr)-1])
		}
	}
	var buf bytes.Buffer
	if err := RenderFigure10(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure11(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	for _, s := range r.Suggestions {
		if s.BestPeer == "" || s.SharedCities == 0 {
			t.Errorf("%s: bad suggestion %+v", s.Network, s)
		}
		if s.Fraction > 1+1e-9 {
			t.Errorf("%s: new peering increased bit-risk (%v)", s.Network, s.Fraction)
		}
	}
	var buf bytes.Buffer
	if err := RenderFigure11(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure12(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure12("Katrina")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Networks) != 7 || len(r.Points) == 0 {
		t.Fatalf("networks=%d points=%d", len(r.Networks), len(r.Points))
	}
	for _, pt := range r.Points {
		for name, rr := range pt.RiskReduction {
			if rr < 0 || rr >= 1 {
				t.Errorf("advisory %d %s: rr = %v", pt.AdvisoryNumber, name, rr)
			}
		}
	}
	if _, err := l.Figure12("NoStorm"); err == nil {
		t.Error("unknown storm accepted")
	}
	var buf bytes.Buffer
	if err := RenderReplay(&buf, "Figure 12", r); err != nil {
		t.Fatal(err)
	}
}

func TestFigure13(t *testing.T) {
	l := testLab(t)
	r, err := l.Figure13("Katrina")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Networks) == 0 || len(r.Points) == 0 {
		t.Fatalf("networks=%d points=%d", len(r.Networks), len(r.Points))
	}
	// Katrina's qualifying networks must be Gulf-region regionals.
	gulf := map[string]bool{"Costreet": true, "Iris": true, "Telepak": true, "USA Network": true, "NTS": true}
	for _, n := range r.Networks {
		if !gulf[n] {
			t.Errorf("non-Gulf network %s qualified for Katrina", n)
		}
	}
	if _, err := l.Figure13("NoStorm"); err == nil {
		t.Error("unknown storm accepted")
	}
	var buf bytes.Buffer
	if err := RenderReplay(&buf, "Figure 13", r); err != nil {
		t.Fatal(err)
	}
}

func TestExtras(t *testing.T) {
	l := testLab(t)
	r, err := l.Extras()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TopSharedRisk) == 0 {
		t.Fatal("no shared-risk pairs")
	}
	for i := 1; i < len(r.TopSharedRisk); i++ {
		if r.TopSharedRisk[i].Normalized > r.TopSharedRisk[i-1].Normalized+1e-12 {
			t.Error("shared-risk pairs not sorted")
		}
	}
	if len(r.SeasonalRiskReduction) != 4 || len(r.SeasonalMeanRisk) != 4 {
		t.Fatalf("seasonal maps: %v / %v", r.SeasonalRiskReduction, r.SeasonalMeanRisk)
	}
	// Gulf network: hurricane season carries the most risk.
	if r.SeasonalMeanRisk["Fall"] <= r.SeasonalMeanRisk["Winter"] {
		t.Errorf("fall risk %v should exceed winter %v for a Gulf network",
			r.SeasonalMeanRisk["Fall"], r.SeasonalMeanRisk["Winter"])
	}
	var buf bytes.Buffer
	if err := RenderExtras(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "shared disaster exposure") {
		t.Error("render missing shared risk section")
	}
}
