package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"riskroute/internal/core"
	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/geo"
	"riskroute/internal/interdomain"
	"riskroute/internal/kde"
	"riskroute/internal/obs"
	"riskroute/internal/risk"
	"riskroute/internal/topology"
)

func coreEngine(ctx *risk.Context) (*core.Engine, error) {
	return core.New(ctx, core.Options{Workers: 1})
}

func regionalImpact(nets []*topology.Network, s *Scenario) (int, int) {
	return interdomain.RegionalImpact(nets, s.Center, s.RadiusMi)
}

// testNet builds a small east-coast ring-with-chords network whose PoPs
// straddle the default geometric-family region.
func testNet(name string, n int) *topology.Network {
	net := &topology.Network{Name: name, Tier: topology.Regional}
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n)
		net.PoPs = append(net.PoPs, topology.PoP{
			Name: fmt.Sprintf("%s-%d", name, i),
			Location: geo.Point{
				Lat: 27 + 20*f,
				Lon: -95 + 22*f + 3*math.Sin(float64(i)),
			},
		})
	}
	for i := 0; i < n; i++ {
		net.Links = append(net.Links, topology.Link{A: i, B: (i + 1) % n})
	}
	for i := 0; i+3 < n; i += 3 {
		net.Links = append(net.Links, topology.Link{A: i, B: i + 3})
	}
	return net
}

func testWorld(name string, n int) World {
	net := testNet(name, n)
	hist := make([]float64, n)
	frac := make([]float64, n)
	for i := range hist {
		hist[i] = 0.01 + 0.005*float64(i)
		frac[i] = 1 / float64(n)
	}
	return World{Net: net, Hist: hist, Fractions: frac}
}

// testGenesisField is a tiny uniform surface over the southeast — cheap to
// sample, unlike the full fitted GenesisSurface.
func testGenesisField() *kde.Field {
	f := kde.NewField(geo.NewGrid(geo.Bounds{
		MinLat: 25, MaxLat: 35, MinLon: -95, MaxLon: -75,
	}, 5, 10))
	for i := range f.Values {
		f.Values[i] = 1
	}
	return f
}

func fullSpec(n int) []FamilySpec {
	specs := make([]FamilySpec, 0, numFamilies)
	for _, f := range Families() {
		specs = append(specs, FamilySpec{Family: f, Count: n})
	}
	return specs
}

func sandyReplay(t testing.TB) *forecast.Replay {
	t.Helper()
	base, err := forecast.LoadReplay(datasets.HurricaneByName("Sandy"))
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestZeroPerturbationMatchesReplay pins the bit-parity contract: a
// zero-magnitude perturbation reproduces the base advisory replay exactly,
// and the compiled overlay equals a direct single-advisory PoPRisks run
// bit-for-bit — including downstream route costs.
func TestZeroPerturbationMatchesReplay(t *testing.T) {
	base := sandyReplay(t)
	scenarios, err := Generate(Config{
		Seed:   42,
		Spec:   []FamilySpec{{PerturbedTrack, 5}},
		Replay: base,
		// Perturb left zero: bit-exact reproduction.
	})
	if err != nil {
		t.Fatal(err)
	}
	rm := forecast.DefaultRiskModel()
	w := testWorld("Zero", 9)
	want := rm.PoPRisks(base.Advisories[peakIndex(base.Advisories)], w.Net)
	for _, s := range scenarios {
		if len(s.Advisories) != len(base.Advisories) {
			t.Fatalf("scenario %d has %d advisories, want %d", s.ID, len(s.Advisories), len(base.Advisories))
		}
		for i, a := range s.Advisories {
			if *a != *base.Advisories[i] {
				t.Fatalf("scenario %d advisory %d drifted:\n got %+v\nwant %+v",
					s.ID, i, *a, *base.Advisories[i])
			}
		}
		ov := s.Compile(w.Net, rm)
		if !reflect.DeepEqual(ov.Forecast, want) {
			t.Fatalf("scenario %d overlay differs from direct PoPRisks run", s.ID)
		}
	}

	// Route costs through the overlay match a single-advisory context run.
	ov := scenarios[0].Compile(w.Net, rm)
	mk := func(of []float64) *risk.Context {
		return &risk.Context{Net: w.Net, Hist: w.Hist, Forecast: of,
			Fractions: w.Fractions, Params: risk.PaperParams()}
	}
	eng1, err := coreEngine(mk(ov.Forecast))
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := coreEngine(mk(want))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(w.Net.PoPs); i++ {
		a, b := eng1.RiskRoutePair(0, i), eng2.RiskRoutePair(0, i)
		if a.BitRiskMiles != b.BitRiskMiles {
			t.Fatalf("pair (0,%d): %v != %v", i, a.BitRiskMiles, b.BitRiskMiles)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{
		Seed:         7,
		Spec:         fullSpec(4),
		Replay:       sandyReplay(t),
		Perturb:      DefaultPerturbation(),
		GenesisField: testGenesisField(),
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different ensembles")
	}
	cfg.Seed = 8
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical ensembles")
	}
	if len(a) != 5*4 {
		t.Fatalf("ensemble has %d scenarios, want 20", len(a))
	}
	for i, s := range a {
		if s.ID != i {
			t.Fatalf("scenario %d carries ID %d", i, s.ID)
		}
	}
}

// TestFamilyStreamsIndependent pins that resizing one family never
// reshuffles another: scenario k of family F draws the same stream whether
// other families are present or not.
func TestFamilyStreamsIndependent(t *testing.T) {
	cfg := Config{Seed: 11, GenesisField: testGenesisField()}
	cfg.Spec = []FamilySpec{{LineCut, 3}, {DiskOutage, 3}}
	both, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spec = []FamilySpec{{DiskOutage, 3}}
	alone, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		got, want := both[3+k], alone[k]
		if got.Center != want.Center || got.RadiusMi != want.RadiusMi {
			t.Fatalf("disk scenario %d depends on other families: %+v vs %+v", k, got, want)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Seed: 1}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Generate(Config{Seed: 1, Spec: []FamilySpec{{LineCut, 0}}}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Generate(Config{Seed: 1, Spec: []FamilySpec{{LineCut, 1}, {LineCut, 1}}}); err == nil {
		t.Error("duplicate family accepted")
	}
	if _, err := Generate(Config{Seed: 1, Spec: []FamilySpec{{Family(93), 1}}}); err == nil {
		t.Error("unknown family accepted")
	}
	empty := kde.NewField(geo.NewGrid(geo.Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}, 2, 2))
	if _, err := Generate(Config{Seed: 1, Spec: []FamilySpec{{GenesisTrack, 1}}, GenesisField: empty}); err == nil {
		t.Error("massless genesis surface accepted")
	}
}

func TestLineCutGeometry(t *testing.T) {
	s := &Scenario{
		Family:   LineCut,
		CutA:     geo.Point{Lat: 35, Lon: -100},
		CutB:     geo.Point{Lat: 35, Lon: -90},
		RadiusMi: 30,
	}
	net := &topology.Network{Name: "Cut", PoPs: []topology.PoP{
		{Name: "on", Location: geo.Point{Lat: 35.2, Lon: -95}},    // ~14 mi off the chord
		{Name: "off", Location: geo.Point{Lat: 38, Lon: -95}},     // ~190 mi north
		{Name: "beyond", Location: geo.Point{Lat: 35, Lon: -105}}, // past endpoint A
	}}
	rm := forecast.DefaultRiskModel()
	ov := s.Compile(net, rm)
	if ov.Forecast[0] != rm.RhoHurricane {
		t.Errorf("PoP inside corridor scored %v, want %v", ov.Forecast[0], rm.RhoHurricane)
	}
	if ov.Forecast[1] != 0 || ov.Forecast[2] != 0 {
		t.Errorf("PoPs outside corridor scored %v", ov.Forecast[1:])
	}
	if ov.Disabled != nil {
		t.Error("line cut disabled links")
	}
}

// TestRegionalDisabledLinks cross-checks Compile's disabled-link list
// against interdomain.RegionalImpact: over all networks, the summed
// per-network disabled counts must equal the conduit-amplification count.
func TestRegionalDisabledLinks(t *testing.T) {
	scenarios, err := Generate(Config{Seed: 3, Spec: []FamilySpec{{RegionalFailure, 12}}})
	if err != nil {
		t.Fatal(err)
	}
	worlds := []World{testWorld("A", 8), testWorld("B", 11)}
	rm := forecast.DefaultRiskModel()
	nets := []*topology.Network{worlds[0].Net, worlds[1].Net}
	for _, s := range scenarios {
		sum := 0
		for _, w := range worlds {
			ov := s.Compile(w.Net, rm)
			for _, li := range ov.Disabled {
				l := w.Net.Links[li]
				aIn := geo.Distance(s.Center, w.Net.PoPs[l.A].Location) <= s.RadiusMi
				bIn := geo.Distance(s.Center, w.Net.PoPs[l.B].Location) <= s.RadiusMi
				if !aIn && !bIn {
					t.Fatalf("scenario %d disabled link %d with no endpoint inside", s.ID, li)
				}
			}
			sum += len(ov.Disabled)
		}
		if _, links := regionalImpact(nets, s); links != sum {
			t.Fatalf("scenario %d: RegionalImpact links %d != summed disabled %d", s.ID, links, sum)
		}
	}
}

func TestSweepWorkerInvariance(t *testing.T) {
	scenarios, err := Generate(Config{
		Seed:         21,
		Spec:         fullSpec(6),
		Replay:       sandyReplay(t),
		Perturb:      DefaultPerturbation(),
		GenesisField: testGenesisField(),
	})
	if err != nil {
		t.Fatal(err)
	}
	worlds := []World{testWorld("A", 10), testWorld("B", 7)}
	var baseline *Report
	var baselineJSON []byte
	for _, workers := range []int{1, 2, 3, 8} {
		rep, err := Sweep(scenarios, worlds, SweepConfig{
			Seed: 21, Params: risk.PaperParams(), Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline, baselineJSON = rep, buf
			continue
		}
		if !reflect.DeepEqual(rep, baseline) {
			t.Fatalf("workers=%d report differs from workers=1", workers)
		}
		if string(buf) != string(baselineJSON) {
			t.Fatalf("workers=%d JSON differs from workers=1", workers)
		}
	}
	if baseline.Scenarios != 30 || len(baseline.Families) != int(numFamilies) {
		t.Fatalf("report shape: %d scenarios, %d families", baseline.Scenarios, len(baseline.Families))
	}
	if baseline.SharedConduitLinks == nil {
		t.Fatal("regional family swept but no shared-conduit distribution")
	}
	for _, nr := range baseline.Networks {
		for _, fr := range nr.Families {
			if fr.Scenarios != 6 {
				t.Fatalf("%s/%s has %d scenarios", nr.Network, fr.Family, fr.Scenarios)
			}
			if fr.Family == RegionalFailure.String() {
				if fr.DisabledLinks == nil || fr.UnreachablePairs == nil {
					t.Fatalf("%s regional report missing failure distributions", nr.Network)
				}
			} else if fr.DisabledLinks != nil || fr.UnreachablePairs != nil {
				t.Fatalf("%s/%s carries failure distributions", nr.Network, fr.Family)
			}
		}
	}
}

func TestSweepErrors(t *testing.T) {
	w := testWorld("A", 5)
	if _, err := Sweep(nil, []World{w}, SweepConfig{}); err == nil {
		t.Error("empty ensemble accepted")
	}
	s := &Scenario{Family: DiskOutage, Center: geo.Point{Lat: 30, Lon: -90}, RadiusMi: 10}
	if _, err := Sweep([]*Scenario{s}, nil, SweepConfig{}); err == nil {
		t.Error("no worlds accepted")
	}
	bad := World{Net: w.Net, Hist: w.Hist[:2], Fractions: w.Fractions}
	if _, err := Sweep([]*Scenario{s}, []World{bad}, SweepConfig{}); err == nil {
		t.Error("misaligned world accepted")
	}
	// A world whose risk context fails validation stops the sweep, naming
	// the world, before any family's scenarios run.
	invalid := testWorld("Invalid", 5)
	invalid.Hist[2] = -0.1
	tr := obs.NewTrace("test")
	_, err := Sweep([]*Scenario{s}, []World{w, invalid}, SweepConfig{Trace: tr})
	if err == nil || !strings.Contains(err.Error(), "Invalid") {
		t.Errorf("invalid world: err = %v", err)
	}
	if snap := tr.Snapshot(); snap.Find("sweep-"+s.Family.String()) != nil {
		t.Error("scenarios ran before the invalid world was rejected")
	}
}

func TestSamplePairs(t *testing.T) {
	net := testNet("Pairs", 9)
	a := samplePairs(net, 5, 6)
	b := samplePairs(net, 5, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("pair sample not deterministic")
	}
	if len(a) != 6 {
		t.Fatalf("got %d pairs, want 6", len(a))
	}
	seen := make(map[[2]int]bool)
	for _, p := range a {
		if p[0] >= p[1] {
			t.Fatalf("pair %v not ordered", p)
		}
		if seen[p] {
			t.Fatalf("pair %v repeated", p)
		}
		seen[p] = true
	}
	if c := samplePairs(net, 6, 6); reflect.DeepEqual(a, c) {
		t.Error("different seeds drew identical pair samples")
	}
	// Requests beyond n(n-1)/2 are capped, not looped forever.
	tiny := testNet("Tiny", 3)
	if got := samplePairs(tiny, 1, 100); len(got) != 3 {
		t.Fatalf("capped sample has %d pairs, want 3", len(got))
	}
}

func TestDistribute(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i) // 0..99
	}
	d := distribute(vals)
	if d.Count != 100 || d.Min != 0 || d.Max != 99 || d.Mean != 49.5 {
		t.Fatalf("moments: %+v", d)
	}
	// 64 buckets over [0,99]: quantile error bounded by one bucket width.
	width := 99.0 / 64
	for _, q := range []struct{ got, want float64 }{
		{d.P50, 49.5}, {d.P90, 89.1}, {d.P99, 98.01},
	} {
		if math.Abs(q.got-q.want) > width+1e-9 {
			t.Errorf("quantile %v, want ~%v (±%v)", q.got, q.want, width)
		}
	}
	if len(d.Exceedance) != 8 {
		t.Fatalf("%d exceedance points", len(d.Exceedance))
	}
	for i, p := range d.Exceedance {
		want := float64(99-int(p.Threshold)) / 100
		if math.Abs(p.Fraction-want) > 0.011 {
			t.Errorf("exceedance[%d] at %v = %v, want ~%v", i, p.Threshold, p.Fraction, want)
		}
		if i > 0 && p.Fraction > d.Exceedance[i-1].Fraction {
			t.Error("exceedance curve not non-increasing")
		}
	}

	flat := distribute([]float64{3, 3, 3})
	if flat.P50 != 3 || flat.P90 != 3 || flat.P99 != 3 || flat.Exceedance != nil {
		t.Errorf("degenerate distribution: %+v", flat)
	}
	if z := distribute(nil); z.Count != 0 {
		t.Errorf("empty distribution: %+v", z)
	}
}

func TestGenesisTracksLand(t *testing.T) {
	scenarios, err := Generate(Config{
		Seed:         9,
		Spec:         []FamilySpec{{GenesisTrack, 20}},
		GenesisField: testGenesisField(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scenarios {
		if len(s.Advisories) != 12 {
			t.Fatalf("genesis track has %d advisories", len(s.Advisories))
		}
		g := s.Advisories[0].Center
		if g.Lat < 25 || g.Lat > 35 || g.Lon < -95 || g.Lon > -75 {
			t.Fatalf("genesis point %+v outside sampler field", g)
		}
		if s.Advisories[s.Peak].MaxWindMPH < 74 {
			t.Fatalf("peak wind %v below hurricane force", s.Advisories[s.Peak].MaxWindMPH)
		}
		for _, a := range s.Advisories {
			if a.TropicalRadiusMi < a.HurricaneRadiusMi {
				t.Fatalf("radii inverted: %+v", a)
			}
		}
	}
}
