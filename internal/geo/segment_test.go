package geo

import (
	"math"
	"testing"

	"riskroute/internal/stats"
)

func TestInitialBearingCardinal(t *testing.T) {
	origin := Point{Lat: 0, Lon: 0}
	cases := []struct {
		to   Point
		want float64
	}{
		{Point{Lat: 1, Lon: 0}, 0},    // due north
		{Point{Lat: 0, Lon: 1}, 90},   // due east along the equator
		{Point{Lat: -1, Lon: 0}, 180}, // due south
		{Point{Lat: 0, Lon: -1}, 270}, // due west along the equator
	}
	for _, c := range cases {
		got := InitialBearing(origin, c.to)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("InitialBearing(origin, %v) = %v, want %v", c.to, got, c.want)
		}
	}
	if got := InitialBearing(origin, origin); got != 0 {
		t.Errorf("bearing to self = %v, want 0", got)
	}
}

func TestInitialBearingDestinationRoundTrip(t *testing.T) {
	rng := stats.NewRNG(11)
	for i := 0; i < 200; i++ {
		a := Point{Lat: rng.Range(25, 49), Lon: rng.Range(-124, -67)}
		brg := rng.Float64() * 360
		b := Destination(a, brg, rng.Range(50, 1500))
		got := InitialBearing(a, b)
		diff := math.Abs(got - brg)
		if diff > 180 {
			diff = 360 - diff
		}
		if diff > 1e-6 {
			t.Fatalf("bearing(%v -> Destination(%v, %v)) = %v", a, a, brg, got)
		}
	}
}

// TestSegmentDistanceBruteForce pins the closed-form segment distance
// against a dense sampling of the segment: the analytic answer must match
// the minimum over sampled points to within the sampling resolution.
func TestSegmentDistanceBruteForce(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 100; trial++ {
		a := Point{Lat: rng.Range(25, 49), Lon: rng.Range(-124, -67)}
		b := Destination(a, rng.Float64()*360, rng.Range(100, 1800))
		p := Point{Lat: rng.Range(20, 54), Lon: rng.Range(-130, -60)}

		const samples = 4000
		brute := math.Inf(1)
		for i := 0; i <= samples; i++ {
			q := Interpolate(a, b, float64(i)/samples)
			if d := Distance(p, q); d < brute {
				brute = d
			}
		}
		got := SegmentDistance(a, b, p)
		// Sampling resolution: half the inter-sample spacing, plus slack.
		tol := Distance(a, b)/samples + 0.05
		if math.Abs(got-brute) > tol {
			t.Fatalf("trial %d: SegmentDistance(%v, %v, %v) = %v, brute force %v (tol %v)",
				trial, a, b, p, got, brute, tol)
		}
	}
}

func TestSegmentDistanceEndpointsAndDegenerate(t *testing.T) {
	a := Point{Lat: 40, Lon: -100}
	b := Point{Lat: 40, Lon: -90}
	if d := SegmentDistance(a, b, a); d != 0 {
		t.Errorf("distance to own endpoint a = %v", d)
	}
	if d := SegmentDistance(a, b, b); d > 1e-9 {
		t.Errorf("distance to own endpoint b = %v", d)
	}
	p := Point{Lat: 42, Lon: -110}
	if got, want := SegmentDistance(a, a, p), Distance(a, p); got != want {
		t.Errorf("degenerate segment: got %v, want %v", got, want)
	}
	// A point beyond b must measure to b, not to the infinite great circle.
	beyond := Destination(b, InitialBearing(a, b), 300)
	if got, want := SegmentDistance(a, b, beyond), Distance(b, beyond); math.Abs(got-want) > 0.2 {
		t.Errorf("point beyond b: got %v, want %v", got, want)
	}
}
