package forecast

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/topology"
)

func sampleAdvisory() *Advisory {
	return &Advisory{
		Storm:             "IRENE",
		Number:            23,
		Time:              time.Date(2011, 8, 27, 15, 0, 0, 0, time.UTC),
		Zone:              "EDT",
		Center:            geo.Point{Lat: 35.2, Lon: -76.4},
		MaxWindMPH:        85,
		HurricaneRadiusMi: 90,
		TropicalRadiusMi:  260,
		MovementDirDeg:    22.5, // north-northeast
		MovementSpeedMPH:  15,
	}
}

func TestAdvisoryTextMatchesPaperFormat(t *testing.T) {
	text := sampleAdvisory().Text()
	// The exact phrases quoted in the paper's Section 4.4.
	for _, phrase := range []string{
		"THE CENTER OF HURRICANE IRENE WAS LOCATED",
		"NEAR LATITUDE 35.2 NORTH...LONGITUDE 76.4 WEST",
		"IRENE IS MOVING TOWARD THE NORTH-NORTHEAST",
		"NEAR 15 MPH",
		"HURRICANE-FORCE WINDS EXTEND OUTWARD UP TO 90 MILES",
		"TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 260 MILES",
		"ADVISORY NUMBER 23",
	} {
		if !strings.Contains(text, phrase) {
			t.Errorf("advisory text missing %q:\n%s", phrase, text)
		}
	}
	// Timestamp renders in EDT: 15:00 UTC == 11:00 AM EDT.
	if !strings.Contains(text, "1100 AM EDT SAT AUG 27 2011") {
		t.Errorf("advisory timestamp wrong:\n%s", text)
	}
}

func TestAdvisoryRoundTrip(t *testing.T) {
	orig := sampleAdvisory()
	parsed, err := ParseAdvisory(orig.Text())
	if err != nil {
		t.Fatalf("ParseAdvisory: %v", err)
	}
	if parsed.Storm != orig.Storm || parsed.Number != orig.Number {
		t.Errorf("header: %s #%d", parsed.Storm, parsed.Number)
	}
	if !parsed.Time.Equal(orig.Time) {
		t.Errorf("time = %v, want %v", parsed.Time, orig.Time)
	}
	if geo.Distance(parsed.Center, orig.Center) > 8 {
		// One decimal of lat/lon is ~7 miles of rounding.
		t.Errorf("center = %v, want %v", parsed.Center, orig.Center)
	}
	if parsed.MaxWindMPH != 85 || parsed.HurricaneRadiusMi != 90 || parsed.TropicalRadiusMi != 260 {
		t.Errorf("winds: %v / %v / %v", parsed.MaxWindMPH, parsed.HurricaneRadiusMi, parsed.TropicalRadiusMi)
	}
	if parsed.MovementDirDeg != 22.5 || parsed.MovementSpeedMPH != 15 {
		t.Errorf("movement: %v° at %v mph", parsed.MovementDirDeg, parsed.MovementSpeedMPH)
	}
}

func TestTropicalStormRendering(t *testing.T) {
	a := sampleAdvisory()
	a.MaxWindMPH = 50
	a.HurricaneRadiusMi = 0
	text := a.Text()
	if !strings.Contains(text, "TROPICAL STORM IRENE") {
		t.Errorf("weak storm should render as TROPICAL STORM:\n%s", text)
	}
	if strings.Contains(text, "HURRICANE-FORCE WINDS") {
		t.Error("no hurricane-force sentence expected below hurricane strength")
	}
	parsed, err := ParseAdvisory(text)
	if err != nil {
		t.Fatalf("ParseAdvisory: %v", err)
	}
	if parsed.HurricaneRadiusMi != 0 || parsed.TropicalRadiusMi != 260 {
		t.Errorf("radii: %v / %v", parsed.HurricaneRadiusMi, parsed.TropicalRadiusMi)
	}
}

func TestParseAdvisoryPaperFragment(t *testing.T) {
	// The verbatim fragment quoted in the paper, embedded in a minimal
	// bulletin skeleton.
	text := `BULLETIN
HURRICANE IRENE ADVISORY NUMBER 30
NWS NATIONAL HURRICANE CENTER MIAMI FL
1100 AM EDT SAT AUG 27 2011

...THE CENTER OF HURRICANE IRENE WAS LOCATED NEAR LATITUDE 35.2 NORTH...LONGITUDE 76.4 WEST. IRENE IS MOVING TOWARD THE NORTH-NORTHEAST NEAR 15 MPH...HURRICANE-FORCE WINDS EXTEND OUTWARD UP TO 90 MILES...150 KM...FROM THE CENTER...AND TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 260 MILES...415 KM...
`
	a, err := ParseAdvisory(text)
	if err != nil {
		t.Fatalf("ParseAdvisory: %v", err)
	}
	if a.Center.Lat != 35.2 || a.Center.Lon != -76.4 {
		t.Errorf("center = %v", a.Center)
	}
	if a.HurricaneRadiusMi != 90 || a.TropicalRadiusMi != 260 {
		t.Errorf("radii = %v / %v", a.HurricaneRadiusMi, a.TropicalRadiusMi)
	}
	if a.MovementSpeedMPH != 15 {
		t.Errorf("speed = %v", a.MovementSpeedMPH)
	}
}

func TestParseAdvisoryErrors(t *testing.T) {
	tests := []struct {
		name, text string
	}{
		{"empty", ""},
		{"no timestamp", "HURRICANE X ADVISORY NUMBER 1\nLATITUDE 30.0 NORTH...LONGITUDE 80.0 WEST"},
		{"no center", "HURRICANE X ADVISORY NUMBER 1\n500 PM EDT MON AUG 01 2011\n"},
		{"bad zone", "HURRICANE X ADVISORY NUMBER 1\n500 PM XYZ MON AUG 01 2011\nLATITUDE 30.0 NORTH...LONGITUDE 80.0 WEST\nTROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 100 MILES"},
		{"no tropical radius", "HURRICANE X ADVISORY NUMBER 1\n500 PM EDT MON AUG 01 2011\nLATITUDE 30.0 NORTH...LONGITUDE 80.0 WEST."},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseAdvisory(tt.text); err == nil {
				t.Error("expected parse error")
			}
		})
	}
}

func TestCompassRoundTrip(t *testing.T) {
	for i, name := range compass16 {
		deg := float64(i) * 22.5
		if got := CompassName(deg); got != name {
			t.Errorf("CompassName(%v) = %s, want %s", deg, got, name)
		}
		if got := compassDegrees(name); got != deg {
			t.Errorf("compassDegrees(%s) = %v, want %v", name, got, deg)
		}
	}
	if CompassName(359) != "NORTH" || CompassName(-10) != "NORTH" {
		t.Error("compass wraparound broken")
	}
}

func TestGenerateCorpusCounts(t *testing.T) {
	for _, track := range datasets.Hurricanes {
		texts := GenerateCorpus(&track)
		if len(texts) != track.Advisories {
			t.Errorf("%s corpus has %d advisories, want %d", track.Name, len(texts), track.Advisories)
		}
	}
}

func TestLoadReplayAllStorms(t *testing.T) {
	for _, track := range datasets.Hurricanes {
		r, err := LoadReplay(&track)
		if err != nil {
			t.Fatalf("LoadReplay(%s): %v", track.Name, err)
		}
		if len(r.Advisories) != track.Advisories {
			t.Errorf("%s replay has %d advisories", track.Name, len(r.Advisories))
		}
		for i := 1; i < len(r.Advisories); i++ {
			if !r.Advisories[i].Time.After(r.Advisories[i-1].Time) {
				t.Errorf("%s advisory %d not after %d", track.Name, i+1, i)
			}
			if r.Advisories[i].Number != r.Advisories[i-1].Number+1 {
				t.Errorf("%s advisory numbering broken at %d", track.Name, i)
			}
		}
		// Katrina uses CDT, the Atlantic storms EDT.
		wantZone := "EDT"
		if track.Name == "Katrina" {
			wantZone = "CDT"
		}
		if r.Advisories[0].Zone != wantZone {
			t.Errorf("%s zone = %s, want %s", track.Name, r.Advisories[0].Zone, wantZone)
		}
	}
}

func TestRiskModelBands(t *testing.T) {
	rm := DefaultRiskModel()
	a := sampleAdvisory()
	center := a.Center
	if got := rm.RiskAt(a, center); got != 100 {
		t.Errorf("risk at center = %v, want 100", got)
	}
	inTropical := geo.Destination(center, 90, 150) // between 90 and 260 miles
	if got := rm.RiskAt(a, inTropical); got != 50 {
		t.Errorf("risk in tropical band = %v, want 50", got)
	}
	outside := geo.Destination(center, 90, 400)
	if got := rm.RiskAt(a, outside); got != 0 {
		t.Errorf("risk outside = %v, want 0", got)
	}
	// Hurricane radius zero: no hurricane band even at the center.
	a.HurricaneRadiusMi = 0
	if got := rm.RiskAt(a, center); got != 50 {
		t.Errorf("risk at center of TS = %v, want 50", got)
	}
}

func TestRiskModelMonotoneInRadius(t *testing.T) {
	rm := DefaultRiskModel()
	a := sampleAdvisory()
	prev := math.Inf(1)
	for _, miles := range []float64{0, 50, 89, 91, 259, 261, 500} {
		p := geo.Destination(a.Center, 180, miles)
		got := rm.RiskAt(a, p)
		if got > prev {
			t.Errorf("risk increased with distance at %v miles: %v > %v", miles, got, prev)
		}
		prev = got
	}
}

func gulfAndNortheastNet() *topology.Network {
	return &topology.Network{
		Name: "Mix",
		Tier: topology.Tier1,
		PoPs: []topology.PoP{
			{Name: "New Orleans", Location: geo.Point{Lat: 29.95, Lon: -90.07}},
			{Name: "New York", Location: geo.Point{Lat: 40.71, Lon: -74.01}},
			{Name: "Denver", Location: geo.Point{Lat: 39.74, Lon: -104.99}},
		},
		Links: []topology.Link{{A: 0, B: 1}, {A: 1, B: 2}},
	}
}

func TestScopeClassification(t *testing.T) {
	n := gulfAndNortheastNet()

	katrina, err := LoadReplay(datasets.HurricaneByName("Katrina"))
	if err != nil {
		t.Fatal(err)
	}
	ks := ScopeOf(katrina)
	if got := ks.Classify(n.PoPs[0].Location); got != HurricaneForce {
		t.Errorf("New Orleans under Katrina = %v, want HurricaneForce", got)
	}
	if got := ks.Classify(n.PoPs[2].Location); got != Outside {
		t.Errorf("Denver under Katrina = %v, want Outside", got)
	}

	sandy, err := LoadReplay(datasets.HurricaneByName("Sandy"))
	if err != nil {
		t.Fatal(err)
	}
	ss := ScopeOf(sandy)
	if got := ss.Classify(n.PoPs[1].Location); got == Outside {
		t.Errorf("New York under Sandy = %v, want in scope", got)
	}
	if got := ss.Classify(n.PoPs[0].Location); got == HurricaneForce {
		t.Errorf("New Orleans under Sandy = %v, want not hurricane-force", got)
	}

	h, trop := ks.PoPsInScope(n)
	if h != 1 || trop != 1 {
		t.Errorf("Katrina PoPsInScope = (%d, %d), want (1, 1)", h, trop)
	}
}

func TestPoPRisksAlignment(t *testing.T) {
	rm := DefaultRiskModel()
	n := gulfAndNortheastNet()
	katrina, err := LoadReplay(datasets.HurricaneByName("Katrina"))
	if err != nil {
		t.Fatal(err)
	}
	// Landfall-era advisory: last quarter of the sequence.
	a := katrina.Advisories[len(katrina.Advisories)*9/10]
	risks := rm.PoPRisks(a, n)
	if len(risks) != 3 {
		t.Fatalf("PoPRisks len %d", len(risks))
	}
	if risks[2] != 0 {
		t.Errorf("Denver forecast risk = %v, want 0", risks[2])
	}
}

// distanceRisk is the plain classification RiskAt must reproduce: one
// haversine per point, against each radius.
func distanceRisk(r RiskModel, a *Advisory, p geo.Point) float64 {
	d := geo.Distance(a.Center, p)
	if a.HurricaneRadiusMi > 0 && d <= a.HurricaneRadiusMi {
		return r.RhoHurricane
	}
	if d <= a.TropicalRadiusMi {
		return r.RhoTropical
	}
	return 0
}

// edgePoints returns points around the latitude band of each radius about
// c: on c's meridian at exactly the radius (by Destination and by the
// meridian arc, and one ulp either side), just inside and just outside the
// bound's 1e-9 margin, and off the meridian at those latitudes; plus a ring
// of bearings at each radius. Points past a pole are dropped.
func edgePoints(c geo.Point, radii ...float64) []geo.Point {
	var lats []float64
	var pts []geo.Point
	for _, r := range radii {
		arc := geo.RadToDeg(r / geo.EarthRadiusMiles)
		for _, f := range []float64{1 - 2e-9, 1 - 1e-12, 1, 1 + 1e-12, 1 + 2e-9} {
			for _, lat := range []float64{c.Lat + arc*f, c.Lat - arc*f} {
				lats = append(lats, math.Nextafter(lat, -90), lat, math.Nextafter(lat, 90))
			}
		}
		for _, brg := range []float64{0, 180} {
			lats = append(lats, geo.Destination(c, brg, r).Lat)
		}
		for brg := 0.0; brg < 360; brg += 15 {
			for _, f := range []float64{1 - 1e-9, 1, 1 + 1e-9} {
				pts = append(pts, geo.Destination(c, brg, r*f))
			}
		}
	}
	for _, lat := range lats {
		for _, dLon := range []float64{0, 1e-9, 0.5, 3, 180} {
			pts = append(pts, geo.Point{Lat: lat, Lon: c.Lon + dLon})
		}
	}
	out := pts[:0]
	for _, p := range pts {
		if p.Lon > 180 {
			p.Lon -= 360
		}
		if p.Valid() {
			out = append(out, p)
		}
	}
	return out
}

// TestPoPRisksMatchDistanceOracle holds PoPRisks, whose RiskAt skips the
// haversine for points the latitude bound places beyond both radii,
// bit-identical to distanceRisk. It covers every bulletin of the three
// corpora against every built-in network, and constructed cases at the
// bound's edges: points on the centre's meridian exactly at each radius, a
// zero hurricane radius, centres at ±89.9°, and points just inside and just
// outside the latitude band.
func TestPoPRisksMatchDistanceOracle(t *testing.T) {
	rm := DefaultRiskModel()
	check := func(name string, a *Advisory, n *topology.Network) (inside int) {
		t.Helper()
		got := rm.PoPRisks(a, n)
		for i, p := range n.PoPs {
			want := distanceRisk(rm, a, p.Location)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s: PoP %d at %v: PoPRisks %v, haversine %v (centre %v, radii %v/%v)",
					name, i, p.Location, got[i], want, a.Center, a.HurricaneRadiusMi, a.TropicalRadiusMi)
			}
			if want != 0 {
				inside++
			}
		}
		return inside
	}

	nets := datasets.BuildNetworks()
	pairs, inside := 0, 0
	for _, track := range datasets.Hurricanes {
		r, err := LoadReplay(&track)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range r.Advisories {
			for _, n := range nets {
				inside += check(fmt.Sprintf("%s advisory %d on %s", r.Storm, a.Number, n.Name), a, n)
				pairs += len(n.PoPs)
			}
		}
	}
	if inside == 0 {
		t.Fatal("no corpus (bulletin, PoP) pair lies inside a wind field")
	}
	t.Logf("%d corpus (bulletin, PoP) pairs, %d inside a wind field", pairs, inside)

	for _, c := range []struct {
		name             string
		center           geo.Point
		hurricane, tropo float64
	}{
		{"hurricane", geo.Point{Lat: 35.2, Lon: -76.4}, 90, 260},
		{"tropical storm", geo.Point{Lat: 25.1, Lon: -80.3}, 0, 140},
		{"equal radii", geo.Point{Lat: -12.5, Lon: 150}, 75, 75},
		{"north pole", geo.Point{Lat: 89.9, Lon: -40}, 90, 260},
		{"south pole", geo.Point{Lat: -89.9, Lon: 170}, 0, 260},
	} {
		a := sampleAdvisory()
		a.Center, a.HurricaneRadiusMi, a.TropicalRadiusMi = c.center, c.hurricane, c.tropo
		n := &topology.Network{Name: c.name}
		for i, p := range append(edgePoints(c.center, c.hurricane, c.tropo), c.center) {
			n.PoPs = append(n.PoPs, topology.PoP{Name: fmt.Sprint(i), Location: p})
		}
		if in := check(c.name, a, n); in == 0 || in == len(n.PoPs) {
			t.Errorf("%s: %d of %d edge points inside, want both sides covered", c.name, in, len(n.PoPs))
		}
	}
}

func BenchmarkParseAdvisory(b *testing.B) {
	text := sampleAdvisory().Text()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseAdvisory(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadReplaySandy(b *testing.B) {
	track := datasets.HurricaneByName("Sandy")
	for i := 0; i < b.N; i++ {
		if _, err := LoadReplay(track); err != nil {
			b.Fatal(err)
		}
	}
}
