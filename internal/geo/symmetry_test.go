package geo_test

import (
	"math"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/stats"
)

// The routing core computes each link's miles once, in the link's stored
// orientation, and then prices paths in either traversal direction with
// them. Answers stay bit-identical to per-hop pricing only if the haversine
// is exactly symmetric, so these tests pin Distance(a, b) == Distance(b, a)
// bitwise rather than within a tolerance.

func TestDistanceSymmetricOnBuiltinLinks(t *testing.T) {
	links := 0
	for _, net := range datasets.BuildNetworks() {
		for _, l := range net.Links {
			a, b := net.PoPs[l.A].Location, net.PoPs[l.B].Location
			ab, ba := geo.Distance(a, b), geo.Distance(b, a)
			if math.Float64bits(ab) != math.Float64bits(ba) {
				t.Errorf("%s link %s–%s: Distance %v one way, %v the other",
					net.Name, net.PoPs[l.A].Name, net.PoPs[l.B].Name, ab, ba)
			}
			links++
		}
	}
	if links == 0 {
		t.Fatal("no built-in links checked")
	}
}

func TestDistanceSymmetricOnRandomPairs(t *testing.T) {
	rng := stats.NewRNG(20131209)
	for k := 0; k < 20000; k++ {
		a := geo.Point{Lat: rng.Range(-90, 90), Lon: rng.Range(-180, 180)}
		b := geo.Point{Lat: rng.Range(-90, 90), Lon: rng.Range(-180, 180)}
		if k%4 == 0 {
			// Nearby pairs, the common case for backbone links.
			b = geo.Point{Lat: a.Lat + rng.Range(-2, 2), Lon: a.Lon + rng.Range(-2, 2)}
		}
		ab, ba := geo.Distance(a, b), geo.Distance(b, a)
		if math.Float64bits(ab) != math.Float64bits(ba) {
			t.Fatalf("Distance(%v, %v) = %v but Distance(%v, %v) = %v", a, b, ab, b, a, ba)
		}
	}
}
