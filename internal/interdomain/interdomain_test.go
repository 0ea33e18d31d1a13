package interdomain

import (
	"math"
	"testing"

	"riskroute/internal/core"
	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/hazard"
	"riskroute/internal/population"
	"riskroute/internal/risk"
	"riskroute/internal/topology"
)

// threeNets builds a small multi-network world: a west chain, an east chain,
// and a transit backbone sharing cities with both.
func threeNets() []*topology.Network {
	mk := func(name string, tier topology.Tier, pops []topology.PoP) *topology.Network {
		n := &topology.Network{Name: name, Tier: tier, PoPs: pops}
		for i := 0; i+1 < len(pops); i++ {
			n.Links = append(n.Links, topology.Link{A: i, B: i + 1})
		}
		return n
	}
	west := mk("West", topology.Regional, []topology.PoP{
		{Name: "Seattle", Location: geo.Point{Lat: 47.61, Lon: -122.33}, State: "WA"},
		{Name: "Portland", Location: geo.Point{Lat: 45.52, Lon: -122.68}, State: "OR"},
		{Name: "Sacramento", Location: geo.Point{Lat: 38.58, Lon: -121.49}, State: "CA"},
	})
	east := mk("East", topology.Regional, []topology.PoP{
		{Name: "New York", Location: geo.Point{Lat: 40.71, Lon: -74.01}, State: "NY"},
		{Name: "Philadelphia", Location: geo.Point{Lat: 39.95, Lon: -75.17}, State: "PA"},
		{Name: "Washington", Location: geo.Point{Lat: 38.91, Lon: -77.04}, State: "DC"},
	})
	transit := mk("Transit", topology.Tier1, []topology.PoP{
		{Name: "Seattle", Location: geo.Point{Lat: 47.61, Lon: -122.33}, State: "WA"},
		{Name: "Denver", Location: geo.Point{Lat: 39.74, Lon: -104.99}, State: "CO"},
		{Name: "Chicago", Location: geo.Point{Lat: 41.88, Lon: -87.63}, State: "IL"},
		{Name: "New York", Location: geo.Point{Lat: 40.71, Lon: -74.01}, State: "NY"},
	})
	return []*topology.Network{west, east, transit}
}

func peersWestEastViaTransit(a, b string) bool {
	pair := a + "|" + b
	switch pair {
	case "West|Transit", "Transit|West", "East|Transit", "Transit|East":
		return true
	}
	return false
}

func TestBuildComposite(t *testing.T) {
	nets := threeNets()
	c, err := Build(nets, peersWestEastViaTransit)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(c.Flat.PoPs) != 10 {
		t.Errorf("flat has %d PoPs, want 10", len(c.Flat.PoPs))
	}
	// Intra links: 2+2+3 = 7; peering: Seattle (West-Transit) + NY
	// (East-Transit) = 2.
	if c.PeeringLinkCount != 2 {
		t.Errorf("peering links = %d, want 2", c.PeeringLinkCount)
	}
	if len(c.Flat.Links) != 7+2 {
		t.Errorf("flat has %d links, want 9", len(c.Flat.Links))
	}
	if got := len(c.NodesOf("West")); got != 3 {
		t.Errorf("NodesOf(West) = %d nodes", got)
	}
	if c.NodesOf("NoSuch") != nil {
		t.Error("unknown network should return nil nodes")
	}
	// Node mapping round-trips.
	for flat, ni := range c.NodeNet {
		orig := nets[ni].PoPs[c.NodeLocal[flat]]
		if c.Flat.PoPs[flat].Name != nets[ni].Name+"/"+orig.Name {
			t.Errorf("flat node %d name mismatch: %s", flat, c.Flat.PoPs[flat].Name)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	nets := threeNets()
	if _, err := Build(nil, peersWestEastViaTransit); err == nil {
		t.Error("empty build accepted")
	}
	dup := []*topology.Network{nets[0], nets[0]}
	if _, err := Build(dup, peersWestEastViaTransit); err == nil {
		t.Error("duplicate names accepted")
	}
	// No peering at all: composite disconnected -> error.
	if _, err := Build(nets, func(a, b string) bool { return false }); err == nil {
		t.Error("disconnected composite accepted")
	}
}

func TestSharedCitiesAndCandidatePeers(t *testing.T) {
	nets := threeNets()
	shared := SharedCities(nets[0], nets[2])
	if len(shared) != 1 || shared[0] != "Seattle" {
		t.Errorf("SharedCities = %v", shared)
	}
	if got := SharedCities(nets[0], nets[1]); len(got) != 0 {
		t.Errorf("West/East share %v", got)
	}
	// West's only co-located unpeered network: none (Transit is peered,
	// East shares nothing).
	if got := CandidatePeers(nets, "West", peersWestEastViaTransit); len(got) != 0 {
		t.Errorf("CandidatePeers(West) = %v", got)
	}
	// With no peerings at all, Transit becomes a candidate for West.
	got := CandidatePeers(nets, "West", func(a, b string) bool { return false })
	if len(got) != 1 || got[0] != "Transit" {
		t.Errorf("CandidatePeers(West, none) = %v", got)
	}
	if CandidatePeers(nets, "NoSuch", peersWestEastViaTransit) != nil {
		t.Error("unknown network should have nil candidates")
	}
}

// testModelAndCensus builds a small hazard model and census for the
// composite tests.
func testModelAndCensus(t *testing.T) (*hazard.Model, *population.Census) {
	t.Helper()
	var sources []hazard.Source
	for _, et := range []datasets.EventType{datasets.FEMAHurricane, datasets.NOAAEarthquake} {
		sources = append(sources, hazard.Source{
			Name:      et.String(),
			Events:    datasets.GenerateEvents(et, 300, 11),
			Bandwidth: et.PaperBandwidth(),
		})
	}
	model, err := hazard.Fit(sources, hazard.FitConfig{CellMiles: 40})
	if err != nil {
		t.Fatal(err)
	}
	return model, datasets.GenerateCensus(datasets.CensusConfig{Blocks: 4000, Seed: 9})
}

func TestRegionalRatios(t *testing.T) {
	nets := threeNets()
	comp, err := Build(nets, peersWestEastViaTransit)
	if err != nil {
		t.Fatal(err)
	}
	model, census := testModelAndCensus(t)
	an, err := NewAnalysis(comp, model, census, nil, risk.PaperParams(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := an.RegionalRatios("West", []string{"West", "East"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pairs == 0 {
		t.Fatal("no pairs evaluated")
	}
	if r.RiskReduction < 0 || r.RiskReduction >= 1 {
		t.Errorf("rr = %v out of range", r.RiskReduction)
	}
	if r.DistanceIncrease < -1e-9 {
		t.Errorf("dr = %v negative", r.DistanceIncrease)
	}
	if _, err := an.RegionalRatios("NoSuch", []string{"East"}); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := an.RegionalRatios("West", []string{"NoSuch"}); err == nil {
		t.Error("unknown destination accepted")
	}
}

func TestNewAnalysisFractionsPerNetwork(t *testing.T) {
	nets := threeNets()
	comp, err := Build(nets, peersWestEastViaTransit)
	if err != nil {
		t.Fatal(err)
	}
	model, census := testModelAndCensus(t)
	an, err := NewAnalysis(comp, model, census, nil, risk.PaperParams(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fractions of each member network must sum to 1 over its flat nodes.
	for _, n := range comp.Networks {
		sum := 0.0
		for _, flat := range comp.NodesOf(n.Name) {
			sum += an.Engine.Ctx.Fractions[flat]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("network %s fractions sum to %v", n.Name, sum)
		}
	}
}

func TestBestNewPeering(t *testing.T) {
	// World where West is only connected via a long detour: West peers
	// with Transit only at Seattle; a new East peering cannot exist (no
	// shared city), but adding a West-East peering is impossible, so use a
	// fourth network co-located with West but unpeered.
	nets := threeNets()
	extra := &topology.Network{
		Name: "Bypass",
		Tier: topology.Tier1,
		PoPs: []topology.PoP{
			{Name: "Sacramento", Location: geo.Point{Lat: 38.58, Lon: -121.49}, State: "CA"},
			{Name: "Chicago", Location: geo.Point{Lat: 41.88, Lon: -87.63}, State: "IL"},
			{Name: "New York", Location: geo.Point{Lat: 40.71, Lon: -74.01}, State: "NY"},
		},
		Links: []topology.Link{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	nets = append(nets, extra)
	peered := func(a, b string) bool {
		if peersWestEastViaTransit(a, b) {
			return true
		}
		// Bypass peers with Transit so the base composite is connected.
		if (a == "Bypass" && b == "Transit") || (a == "Transit" && b == "Bypass") {
			return true
		}
		return false
	}
	model, census := testModelAndCensus(t)

	choices, err := BestNewPeering(nets, peered, "West", []string{"West", "East"},
		model, census, risk.PaperParams(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 || choices[0].Peer != "Bypass" {
		t.Fatalf("choices = %+v, want single Bypass candidate", choices)
	}
	if choices[0].Fraction > 1+1e-9 {
		t.Errorf("new peering made things worse: fraction %v", choices[0].Fraction)
	}
	if choices[0].SharedCities != 1 {
		t.Errorf("SharedCities = %d, want 1 (Sacramento)", choices[0].SharedCities)
	}

	// A network with no candidates errors: Transit already peers with every
	// network it shares a city with.
	if _, err := BestNewPeering(nets, peered, "Transit", []string{"West", "East"},
		model, census, risk.PaperParams(), core.Options{}); err == nil {
		t.Error("Transit has no co-located unpeered networks; expected error")
	}
}

func TestCompositeRoutesAcrossPeering(t *testing.T) {
	nets := threeNets()
	comp, err := Build(nets, peersWestEastViaTransit)
	if err != nil {
		t.Fatal(err)
	}
	g := comp.Flat.Graph()
	// West/Sacramento (node 2) to East/Washington: must cross both
	// peerings via Transit.
	src := comp.NodesOf("West")[2]
	dst := comp.NodesOf("East")[2]
	path, dist := g.ShortestPath(src, dst)
	if path == nil || math.IsInf(dist, 1) {
		t.Fatal("no interdomain path found")
	}
	nets2 := map[int]bool{}
	for _, v := range path {
		nets2[comp.NodeNet[v]] = true
	}
	if len(nets2) != 3 {
		t.Errorf("path %v crosses %d networks, want 3", path, len(nets2))
	}
}
