package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Reference city coordinates used across tests.
var (
	nyc     = Point{Lat: 40.7128, Lon: -74.0060}
	la      = Point{Lat: 34.0522, Lon: -118.2437}
	chicago = Point{Lat: 41.8781, Lon: -87.6298}
	houston = Point{Lat: 29.7604, Lon: -95.3698}
	boston  = Point{Lat: 42.3601, Lon: -71.0589}
)

func TestDistanceKnownPairs(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64 // miles
		tol  float64
	}{
		{"NYC-LA", nyc, la, 2445, 15},
		{"NYC-Chicago", nyc, chicago, 712, 10},
		{"Houston-Boston", houston, boston, 1605, 15},
		{"same point", nyc, nyc, 0, 0},
		{"equator degree", Point{0, 0}, Point{0, 1}, 69.09, 0.5},
		{"antipodal", Point{0, 0}, Point{0, 180}, math.Pi * EarthRadiusMiles, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Distance(tt.a, tt.b)
			if math.Abs(got-tt.want) > tt.tol {
				t.Errorf("Distance(%v, %v) = %.2f, want %.2f ± %.1f", tt.a, tt.b, got, tt.want, tt.tol)
			}
		})
	}
}

func randPoint(lat, lon float64) Point {
	// Map arbitrary float64s into valid coordinate ranges.
	norm := func(x, lo, hi float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0.5
		}
		x = math.Abs(x)
		x = x - math.Floor(x) // fractional part in [0,1)
		return lo + x*(hi-lo)
	}
	return Point{Lat: norm(lat, -89, 89), Lon: norm(lon, -180, 180)}
}

func TestDistanceProperties(t *testing.T) {
	symmetric := func(aLat, aLon, bLat, bLon float64) bool {
		a := randPoint(aLat, aLon)
		b := randPoint(bLat, bLon)
		d1 := Distance(a, b)
		d2 := Distance(b, a)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0 && d1 <= math.Pi*EarthRadiusMiles+1e-6
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry/bounds property failed: %v", err)
	}

	triangle := func(aLat, aLon, bLat, bLon, cLat, cLon float64) bool {
		a := randPoint(aLat, aLon)
		b := randPoint(bLat, bLon)
		c := randPoint(cLat, cLon)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-6
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality failed: %v", err)
	}
}

func TestInterpolateEndpointsAndMidpoint(t *testing.T) {
	if got := Interpolate(nyc, la, 0); Distance(got, nyc) > 1e-6 {
		t.Errorf("Interpolate f=0 = %v, want %v", got, nyc)
	}
	if got := Interpolate(nyc, la, 1); Distance(got, la) > 1e-6 {
		t.Errorf("Interpolate f=1 = %v, want %v", got, la)
	}
	mid := Interpolate(nyc, la, 0.5)
	d1 := Distance(nyc, mid)
	d2 := Distance(mid, la)
	if math.Abs(d1-d2) > 0.01 {
		t.Errorf("midpoint not equidistant: %.4f vs %.4f", d1, d2)
	}
}

func TestInterpolateAdditive(t *testing.T) {
	// Distance from a to Interpolate(a,b,f) should be f * Distance(a,b).
	prop := func(aLat, aLon, bLat, bLon, fRaw float64) bool {
		a := randPoint(aLat, aLon)
		b := randPoint(bLat, bLon)
		if Distance(a, b) < 1 || Distance(a, b) > 6000 {
			return true // skip degenerate or near-antipodal segments
		}
		f := math.Abs(fRaw)
		f = f - math.Floor(f)
		p := Interpolate(a, b, f)
		want := f * Distance(a, b)
		return math.Abs(Distance(a, p)-want) < 0.01+want*1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("interpolate distance property failed: %v", err)
	}
}

func TestDestination(t *testing.T) {
	for _, bearing := range []float64{0, 45, 90, 135, 180, 270} {
		for _, dist := range []float64{10, 100, 500} {
			got := Destination(chicago, bearing, dist)
			if d := Distance(chicago, got); math.Abs(d-dist) > 0.01+dist*1e-6 {
				t.Errorf("Destination(%v, %.0f°, %.0fmi): distance back = %.4f", chicago, bearing, dist, d)
			}
		}
	}
	north := Destination(Point{0, 0}, 0, 69.09)
	if math.Abs(north.Lat-1) > 0.01 || math.Abs(north.Lon) > 0.01 {
		t.Errorf("Destination due north = %v, want ~{1, 0}", north)
	}
}

func TestBounds(t *testing.T) {
	b := BoundsOf([]Point{nyc, la, chicago, houston})
	for _, p := range []Point{nyc, la, chicago, houston} {
		if !b.Contains(p) {
			t.Errorf("bounds %v should contain %v", b, p)
		}
	}
	if b.Contains(Point{Lat: 60, Lon: -100}) {
		t.Error("bounds should not contain a point north of all inputs")
	}
	if got := b.Expand(1); !got.Contains(Point{Lat: b.MaxLat + 0.5, Lon: b.MinLon}) {
		t.Error("expanded bounds should contain padded point")
	}
	clamped := b.Clamp(Point{Lat: 89, Lon: -179})
	if !b.Contains(clamped) {
		t.Errorf("Clamp result %v not inside bounds", clamped)
	}
	if !ContinentalUS.Contains(chicago) {
		t.Error("Chicago should be inside the continental US box")
	}
	if ContinentalUS.Contains(Point{Lat: 21.3, Lon: -157.8}) {
		t.Error("Honolulu should be outside the continental US box")
	}
}

func TestBoundsOfEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BoundsOf(nil) should panic")
		}
	}()
	BoundsOf(nil)
}

func TestPointValid(t *testing.T) {
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, tt := range tests {
		if got := tt.p.Valid(); got != tt.want {
			t.Errorf("%v.Valid() = %v, want %v", tt.p, got, tt.want)
		}
	}
}
