package hazard

import (
	"math"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/geo"
)

func seasonalModel(t *testing.T) *Seasonal {
	t.Helper()
	var bySeason [4][]Source
	for si, season := range datasets.Seasons {
		for _, et := range []datasets.EventType{datasets.FEMAHurricane, datasets.FEMATornado} {
			bySeason[si] = append(bySeason[si], Source{
				Name:      et.String(),
				Events:    datasets.GenerateSeasonalEvents(et, season, 3000, 5),
				Bandwidth: et.PaperBandwidth(),
				// Scale by the seasonal rate (×4 = relative to a uniform
				// season) so the per-season surfaces carry intensity, not
				// just shape — KDE normalization would otherwise erase it.
				Scale: 4 * datasets.SeasonalShare(et, season),
			})
		}
	}
	s, err := FitSeasonal(bySeason, FitConfig{CellMiles: 40})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSeasonalShares(t *testing.T) {
	for _, et := range datasets.EventTypes {
		sum := 0.0
		for _, s := range datasets.Seasons {
			share := datasets.SeasonalShare(et, s)
			if share < 0 || share > 1 {
				t.Errorf("%v %v share = %v", et, s, share)
			}
			sum += share
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v shares sum to %v", et, sum)
		}
	}
	// Climatology encoded correctly.
	if datasets.SeasonalShare(datasets.FEMAHurricane, datasets.Fall) <
		datasets.SeasonalShare(datasets.FEMAHurricane, datasets.Winter) {
		t.Error("hurricanes should peak in fall, not winter")
	}
	if datasets.SeasonalShare(datasets.FEMATornado, datasets.Spring) <
		datasets.SeasonalShare(datasets.FEMATornado, datasets.Winter) {
		t.Error("tornadoes should peak in spring")
	}
	if datasets.Winter.String() != "Winter" || datasets.Fall.String() != "Fall" {
		t.Error("season names wrong")
	}
}

func TestGenerateSeasonalEventsCounts(t *testing.T) {
	annual := 4000
	total := 0
	for _, s := range datasets.Seasons {
		events := datasets.GenerateSeasonalEvents(datasets.FEMAHurricane, s, annual, 7)
		total += len(events)
		for _, e := range events {
			if !geo.ContinentalUS.Contains(e) {
				t.Fatalf("event outside continental US")
			}
		}
	}
	if total < annual*9/10 || total > annual*11/10 {
		t.Errorf("seasonal totals = %d, want ≈ %d", total, annual)
	}
	summer := datasets.GenerateSeasonalEvents(datasets.FEMAHurricane, datasets.Summer, annual, 7)
	winter := datasets.GenerateSeasonalEvents(datasets.FEMAHurricane, datasets.Winter, annual, 7)
	if len(summer) <= len(winter) {
		t.Errorf("summer hurricanes (%d) should outnumber winter (%d)", len(summer), len(winter))
	}
}

func TestSeasonalModelRisk(t *testing.T) {
	s := seasonalModel(t)
	gulf := geo.Point{Lat: 29.9, Lon: -90.1}
	// Hurricane-season risk at the Gulf dwarfs winter risk.
	fallRisk := s.RiskAt(gulf, int(datasets.Fall))
	winterRisk := s.RiskAt(gulf, int(datasets.Winter))
	if fallRisk <= winterRisk {
		t.Errorf("Gulf fall risk %v should exceed winter %v", fallRisk, winterRisk)
	}
	if got := peakSeason(s, gulf); got != int(datasets.Fall) && got != int(datasets.Summer) {
		t.Errorf("Gulf peak season = %s", s.Names[got])
	}
	// Tornado alley peaks in spring.
	alley := geo.Point{Lat: 35.4, Lon: -97.5}
	if got := peakSeason(s, alley); got != int(datasets.Spring) {
		t.Errorf("tornado alley peak season = %s", s.Names[got])
	}
}

// peakSeason returns the season index with the highest risk at p.
func peakSeason(s *Seasonal, p geo.Point) int {
	best := 0
	for i := 1; i < 4; i++ {
		if s.RiskAt(p, i) > s.RiskAt(p, best) {
			best = i
		}
	}
	return best
}

func TestSeasonalPoPRisks(t *testing.T) {
	s := seasonalModel(t)
	net := datasets.NetworkByName("Costreet") // Gulf regional network
	fall := s.PoPRisks(net, int(datasets.Fall))
	winter := s.PoPRisks(net, int(datasets.Winter))
	if len(fall) != len(net.PoPs) {
		t.Fatalf("risks len %d", len(fall))
	}
	fallSum, winterSum := 0.0, 0.0
	for i := range fall {
		fallSum += fall[i]
		winterSum += winter[i]
	}
	if fallSum <= winterSum {
		t.Errorf("Gulf network fall risk %v should exceed winter %v", fallSum, winterSum)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad season should panic")
		}
	}()
	s.PoPRisks(net, 7)
}

func TestWeightedRisk(t *testing.T) {
	m, err := Fit([]Source{
		{Name: "hurr", Events: datasets.GenerateEvents(datasets.FEMAHurricane, 300, 3), Bandwidth: 70},
		{Name: "quake", Events: datasets.GenerateEvents(datasets.NOAAEarthquake, 300, 3), Bandwidth: 100},
	}, FitConfig{CellMiles: 40})
	if err != nil {
		t.Fatal(err)
	}
	gulf := geo.Point{Lat: 29.9, Lon: -90.1}

	// Unit weights reproduce RiskAt.
	if got, want := m.WeightedRiskAt(gulf, nil), m.RiskAt(gulf); math.Abs(got-want) > 1e-12 {
		t.Errorf("nil weights: %v vs %v", got, want)
	}
	// Zeroing the hurricane source leaves only earthquake risk.
	noHurr := m.WeightedRiskAt(gulf, Weights{"hurr": 0})
	if got := m.SourceRiskAt("quake", gulf); math.Abs(noHurr-got) > 1e-12 {
		t.Errorf("zero-weight aggregation: %v vs %v", noHurr, got)
	}
	// Doubling scales that source's contribution.
	doubled := m.WeightedRiskAt(gulf, Weights{"hurr": 2})
	want := m.RiskAt(gulf) + m.SourceRiskAt("hurr", gulf)
	if math.Abs(doubled-want) > 1e-9 {
		t.Errorf("doubled: %v vs %v", doubled, want)
	}
	// Validation.
	if err := m.ValidateWeights(Weights{"hurr": 1}); err != nil {
		t.Errorf("valid weights rejected: %v", err)
	}
	if err := m.ValidateWeights(Weights{"nope": 1}); err == nil {
		t.Error("unknown source weight accepted")
	}
	if err := m.ValidateWeights(Weights{"hurr": -1}); err == nil {
		t.Error("negative weight accepted")
	}
	// WeightedPoPRisks alignment.
	net := datasets.NetworkByName("Abilene")
	risks := m.WeightedPoPRisks(net, Weights{"quake": 0})
	if len(risks) != len(net.PoPs) {
		t.Fatalf("len %d", len(risks))
	}
	for i, p := range net.PoPs {
		if math.Abs(risks[i]-m.SourceRiskAt("hurr", p.Location)) > 1e-12 {
			t.Errorf("PoP %d weighted risk mismatch", i)
		}
	}
}
