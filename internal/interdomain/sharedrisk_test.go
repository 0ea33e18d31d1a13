package interdomain

import (
	"fmt"
	"math"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/hazard"
	"riskroute/internal/topology"
)

func sharedRiskModel(t *testing.T) *hazard.Model {
	t.Helper()
	m, err := hazard.Fit([]hazard.Source{
		{Name: "hurr", Events: datasets.GenerateEvents(datasets.FEMAHurricane, 400, 13), Bandwidth: 70},
		{Name: "storm", Events: datasets.GenerateEvents(datasets.FEMAStorm, 400, 13), Bandwidth: 100},
	}, hazard.FitConfig{CellMiles: 40})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSharedRiskIdenticalNetworks(t *testing.T) {
	model := sharedRiskModel(t)
	a := datasets.NetworkByName("Costreet")
	b := a.Clone()
	b.Name = "CostreetCopy"
	r := SharedRisk(a, b, model, 50)
	if math.Abs(r.Normalized-1) > 1e-9 {
		t.Errorf("identical networks normalized overlap = %v, want 1", r.Normalized)
	}
	if r.ColocatedPairs == 0 || r.Raw <= 0 {
		t.Errorf("identical networks: %+v", r)
	}
}

func TestSharedRiskDisjointGeography(t *testing.T) {
	model := sharedRiskModel(t)
	// A Gulf network vs a Texas network share little; vs a pure-northeast
	// network they share nothing within 50 miles.
	gulf := datasets.NetworkByName("Costreet")      // LA/MS
	northeast := datasets.NetworkByName("Hibernia") // New England corridor
	r := SharedRisk(gulf, northeast, model, 50)
	if r.ColocatedPairs != 0 || r.Normalized != 0 {
		t.Errorf("Gulf vs Northeast overlap: %+v", r)
	}
}

func TestSharedRiskOrdering(t *testing.T) {
	model := sharedRiskModel(t)
	costreet := datasets.NetworkByName("Costreet") // LA + MS
	telepak := datasets.NetworkByName("Telepak")   // MS + neighbors: heavy overlap
	nts := datasets.NetworkByName("NTS")           // Texas only: little overlap
	overlapping := SharedRisk(costreet, telepak, model, 50)
	distant := SharedRisk(costreet, nts, model, 50)
	if overlapping.Normalized <= distant.Normalized {
		t.Errorf("Costreet-Telepak overlap %v should exceed Costreet-NTS %v",
			overlapping.Normalized, distant.Normalized)
	}
}

func TestSharedRiskMatrix(t *testing.T) {
	model := sharedRiskModel(t)
	nets := []*topology.Network{
		datasets.NetworkByName("Costreet"),
		datasets.NetworkByName("Telepak"),
		datasets.NetworkByName("NTS"),
	}
	matrix, err := SharedRiskMatrix(nets, model, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) != 3 {
		t.Fatalf("matrix has %d pairs, want 3", len(matrix))
	}
	for i := 1; i < len(matrix); i++ {
		if matrix[i].Normalized > matrix[i-1].Normalized+1e-12 {
			t.Error("matrix not sorted by descending overlap")
		}
	}
	if matrix[0].A != "Costreet" || matrix[0].B != "Telepak" {
		t.Errorf("top pair = %s-%s, want Costreet-Telepak", matrix[0].A, matrix[0].B)
	}
	if _, err := SharedRiskMatrix(nets[:1], model, 50); err == nil {
		t.Error("single-network matrix accepted")
	}
	// A NaN radius would count every PoP pair as co-located, and one at or
	// below 0 or infinite measures no co-location.
	for _, radius := range []float64{math.NaN(), -5, 0, math.Inf(1)} {
		if m, err := SharedRiskMatrix(nets, model, radius); err == nil {
			t.Errorf("radius %v accepted: %+v", radius, m)
		}
	}
}

func TestSharedRiskSymmetry(t *testing.T) {
	model := sharedRiskModel(t)
	a := datasets.NetworkByName("Costreet")
	b := datasets.NetworkByName("Telepak")
	ab := SharedRisk(a, b, model, 50)
	ba := SharedRisk(b, a, model, 50)
	if math.Abs(ab.Raw-ba.Raw) > 1e-9 || math.Abs(ab.Normalized-ba.Normalized) > 1e-9 {
		t.Errorf("shared risk not symmetric: %+v vs %+v", ab, ba)
	}
}

func TestRegionalImpact(t *testing.T) {
	mk := func(name string, pops []geo.Point, links [][2]int) *topology.Network {
		n := &topology.Network{Name: name, Tier: topology.Regional}
		for i, p := range pops {
			n.PoPs = append(n.PoPs, topology.PoP{Name: fmt.Sprintf("%s-%d", name, i), Location: p})
		}
		for _, l := range links {
			n.Links = append(n.Links, topology.Link{A: l[0], B: l[1]})
		}
		return n
	}
	center := geo.Point{Lat: 35, Lon: -90}
	far := geo.Point{Lat: 45, Lon: -70}
	// Network A: two PoPs at the center linked to each other and to a far
	// PoP — both links have an endpoint inside. Network B: one PoP inside,
	// one chain entirely outside.
	a := mk("A", []geo.Point{center, {Lat: 35.1, Lon: -90.1}, far}, [][2]int{{0, 1}, {1, 2}})
	b := mk("B", []geo.Point{{Lat: 34.9, Lon: -89.9}, far, {Lat: 46, Lon: -69}}, [][2]int{{1, 2}, {0, 1}})

	pops, links := RegionalImpact([]*topology.Network{a, b}, center, 100)
	if pops != 3 {
		t.Errorf("pops inside = %d, want 3", pops)
	}
	// A contributes both links; B contributes only the link touching PoP 0.
	if links != 3 {
		t.Errorf("links hit = %d, want 3", links)
	}
	// Radius zero still catches the PoP exactly at the center.
	pops, links = RegionalImpact([]*topology.Network{a}, center, 0)
	if pops != 1 || links != 1 {
		t.Errorf("zero radius: pops=%d links=%d, want 1/1", pops, links)
	}
}
