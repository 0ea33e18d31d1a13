package population

import (
	"math"
	"testing"

	"riskroute/internal/geo"
	"riskroute/internal/topology"
)

func twoPopNet(tier topology.Tier) *topology.Network {
	return &topology.Network{
		Name: "TwoPoP",
		Tier: tier,
		PoPs: []topology.PoP{
			{Name: "West", Location: geo.Point{Lat: 35, Lon: -110}, State: "AZ"},
			{Name: "East", Location: geo.Point{Lat: 35, Lon: -80}, State: "NC"},
		},
		Links: []topology.Link{{A: 0, B: 1}},
	}
}

func TestNewCensusValidation(t *testing.T) {
	for name, blocks := range map[string][]Block{
		"empty":    nil,
		"negative": {{Population: -1}},
		"zero sum": {{Population: 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewCensus(blocks)
		}()
	}
}

func TestAssignSplitsByProximity(t *testing.T) {
	blocks := []Block{
		{Location: geo.Point{Lat: 35, Lon: -112}, Population: 300, State: "AZ"},
		{Location: geo.Point{Lat: 36, Lon: -109}, Population: 100, State: "AZ"},
		{Location: geo.Point{Lat: 35, Lon: -82}, Population: 500, State: "NC"},
		{Location: geo.Point{Lat: 34, Lon: -79}, Population: 100, State: "NC"},
	}
	c := NewCensus(blocks)
	if c.Total() != 1000 {
		t.Fatalf("total = %v", c.Total())
	}
	a, err := Assign(c, twoPopNet(topology.Tier1))
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if a.Served[0] != 400 || a.Served[1] != 600 {
		t.Errorf("Served = %v, want [400 600]", a.Served)
	}
	if math.Abs(a.Fractions[0]-0.4) > 1e-12 || math.Abs(a.Fractions[1]-0.6) > 1e-12 {
		t.Errorf("Fractions = %v", a.Fractions)
	}
}

func TestFractionsSumToOne(t *testing.T) {
	blocks := make([]Block, 0, 100)
	for i := 0; i < 100; i++ {
		blocks = append(blocks, Block{
			Location:   geo.Point{Lat: 30 + float64(i%10), Lon: -120 + float64(i)*0.5},
			Population: float64(1 + i),
			State:      "XX",
		})
	}
	c := NewCensus(blocks)
	n := &topology.Network{
		Name: "Tri",
		Tier: topology.Tier1,
		PoPs: []topology.PoP{
			{Name: "A", Location: geo.Point{Lat: 32, Lon: -115}},
			{Name: "B", Location: geo.Point{Lat: 36, Lon: -100}},
			{Name: "C", Location: geo.Point{Lat: 38, Lon: -85}},
		},
		Links: []topology.Link{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	a, err := Assign(c, n)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, f := range a.Fractions {
		if f < 0 {
			t.Errorf("negative fraction %v", f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
}

func TestRegionalStateConfinement(t *testing.T) {
	blocks := []Block{
		{Location: geo.Point{Lat: 35.1, Lon: -110.5}, Population: 1000, State: "AZ"},
		{Location: geo.Point{Lat: 35.2, Lon: -80.5}, Population: 2000, State: "NC"},
		// A huge out-of-state block near the western PoP must be ignored
		// for a regional network confined to AZ and NC.
		{Location: geo.Point{Lat: 35.3, Lon: -110.4}, Population: 50000, State: "NM"},
	}
	c := NewCensus(blocks)

	reg, err := Assign(c, twoPopNet(topology.Regional))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Served[0] != 1000 || reg.Served[1] != 2000 {
		t.Errorf("regional Served = %v, want [1000 2000]", reg.Served)
	}

	t1, err := Assign(c, twoPopNet(topology.Tier1))
	if err != nil {
		t.Fatal(err)
	}
	if t1.Served[0] != 51000 {
		t.Errorf("tier-1 Served[0] = %v, want 51000 (no confinement)", t1.Served[0])
	}
}

func TestAssignNoPopulationInScope(t *testing.T) {
	c := NewCensus([]Block{{Location: geo.Point{Lat: 40, Lon: -90}, Population: 10, State: "IL"}})
	if _, err := Assign(c, twoPopNet(topology.Regional)); err == nil {
		t.Error("expected error when no blocks are in the regional network's states")
	}
}

func TestDensityField(t *testing.T) {
	blocks := []Block{
		{Location: geo.Point{Lat: 40.7, Lon: -74.0}, Population: 500, State: "NY"},
		{Location: geo.Point{Lat: 40.7, Lon: -74.0}, Population: 300, State: "NY"},
		{Location: geo.Point{Lat: 34.0, Lon: -118.2}, Population: 200, State: "CA"},
	}
	c := NewCensus(blocks)
	grid := geo.NewGrid(geo.ContinentalUS, 10, 20)
	field := c.DensityField(grid)
	sum := 0.0
	for _, v := range field {
		sum += v
	}
	if math.Abs(sum-1000) > 1e-9 {
		t.Errorf("field total = %v, want 1000", sum)
	}
	r, col := grid.Cell(geo.Point{Lat: 40.7, Lon: -74.0})
	if field[grid.Index(r, col)] != 800 {
		t.Errorf("NYC cell = %v, want 800", field[grid.Index(r, col)])
	}
}

func BenchmarkAssign(b *testing.B) {
	blocks := make([]Block, 20000)
	for i := range blocks {
		blocks[i] = Block{
			Location: geo.Point{
				Lat: 25 + float64(i%97)*0.25,
				Lon: -124 + float64(i%193)*0.3,
			},
			Population: float64(10 + i%1000),
			State:      "XX",
		}
	}
	c := NewCensus(blocks)
	n := &topology.Network{Name: "Bench", Tier: topology.Tier1}
	for i := 0; i < 50; i++ {
		n.PoPs = append(n.PoPs, topology.PoP{
			Name:     string(rune('A'+i%26)) + string(rune('a'+i/26)),
			Location: geo.Point{Lat: 27 + float64(i%7)*3, Lon: -120 + float64(i%11)*5},
		})
		if i > 0 {
			n.Links = append(n.Links, topology.Link{A: i - 1, B: i})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assign(c, n); err != nil {
			b.Fatal(err)
		}
	}
}
