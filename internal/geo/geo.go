// Package geo provides geographic primitives used throughout RiskRoute:
// latitude/longitude points, great-circle ("air mile") distances, bounding
// boxes, and regular geographic grids for rasterized risk surfaces.
//
// All distances are in statute miles, matching the paper's "bit-miles"
// terminology (Level 3's traffic-exchange policy defines bit-miles in air
// miles). Latitudes and longitudes are in decimal degrees, north and east
// positive.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMiles is the mean Earth radius in statute miles, used by the
// haversine great-circle distance.
const EarthRadiusMiles = 3958.7613

// Point is a geographic coordinate in decimal degrees.
type Point struct {
	Lat float64 // latitude, north positive, in [-90, 90]
	Lon float64 // longitude, east positive, in [-180, 180]
}

// String renders the point as "lat,lon" with four decimal places.
func (p Point) String() string {
	return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon)
}

// Valid reports whether the point lies in the legal lat/lon ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// DegToRad converts degrees to radians.
func DegToRad(deg float64) float64 { return deg * math.Pi / 180 }

// RadToDeg converts radians to degrees.
func RadToDeg(rad float64) float64 { return rad * 180 / math.Pi }

// Distance returns the great-circle distance between a and b in statute
// miles, computed with the haversine formula. It is symmetric, zero on
// identical points, and bounded by half the Earth's circumference.
func Distance(a, b Point) float64 {
	if a == b {
		return 0
	}
	lat1 := DegToRad(a.Lat)
	lat2 := DegToRad(b.Lat)
	dLat := lat2 - lat1
	dLon := DegToRad(b.Lon - a.Lon)

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMiles * math.Asin(math.Sqrt(h))
}

// Midpoint returns the geographic midpoint of the great-circle segment
// between a and b.
func Midpoint(a, b Point) Point {
	lat1 := DegToRad(a.Lat)
	lon1 := DegToRad(a.Lon)
	lat2 := DegToRad(b.Lat)
	dLon := DegToRad(b.Lon - a.Lon)

	bx := math.Cos(lat2) * math.Cos(dLon)
	by := math.Cos(lat2) * math.Sin(dLon)
	lat3 := math.Atan2(math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by))
	lon3 := lon1 + math.Atan2(by, math.Cos(lat1)+bx)
	return Point{Lat: RadToDeg(lat3), Lon: normalizeLon(RadToDeg(lon3))}
}

// Interpolate returns the point a fraction f of the way from a to b along
// the great circle, with f=0 at a and f=1 at b. Fractions outside [0,1]
// extrapolate along the same great circle.
func Interpolate(a, b Point, f float64) Point {
	if a == b {
		return a
	}
	lat1 := DegToRad(a.Lat)
	lon1 := DegToRad(a.Lon)
	lat2 := DegToRad(b.Lat)
	lon2 := DegToRad(b.Lon)

	d := Distance(a, b) / EarthRadiusMiles // angular distance in radians
	if d == 0 {
		return a
	}
	sinD := math.Sin(d)
	fa := math.Sin((1-f)*d) / sinD
	fb := math.Sin(f*d) / sinD

	x := fa*math.Cos(lat1)*math.Cos(lon1) + fb*math.Cos(lat2)*math.Cos(lon2)
	y := fa*math.Cos(lat1)*math.Sin(lon1) + fb*math.Cos(lat2)*math.Sin(lon2)
	z := fa*math.Sin(lat1) + fb*math.Sin(lat2)

	lat := math.Atan2(z, math.Sqrt(x*x+y*y))
	lon := math.Atan2(y, x)
	return Point{Lat: RadToDeg(lat), Lon: normalizeLon(RadToDeg(lon))}
}

// Destination returns the point reached by traveling dist miles from origin
// on the initial bearing (degrees clockwise from north).
func Destination(origin Point, bearingDeg, dist float64) Point {
	lat1 := DegToRad(origin.Lat)
	lon1 := DegToRad(origin.Lon)
	brg := DegToRad(bearingDeg)
	ang := dist / EarthRadiusMiles

	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ang) +
		math.Cos(lat1)*math.Sin(ang)*math.Cos(brg))
	lon2 := lon1 + math.Atan2(math.Sin(brg)*math.Sin(ang)*math.Cos(lat1),
		math.Cos(ang)-math.Sin(lat1)*math.Sin(lat2))
	return Point{Lat: RadToDeg(lat2), Lon: normalizeLon(RadToDeg(lon2))}
}

// normalizeLon wraps a longitude into [-180, 180] in constant time. It
// matches the fixpoint of repeatedly adding or subtracting 360: values
// normalized from above land in (-180, 180], values from below in
// [-180, 180), and in-range inputs (±180 included) pass through unchanged.
func normalizeLon(lon float64) float64 {
	switch {
	case lon > 180:
		lon = math.Mod(lon+180, 360) // in [0, 360)
		if lon == 0 {
			return 180
		}
		return lon - 180
	case lon < -180:
		lon = math.Mod(lon-180, 360) // in (-360, 0]
		if lon == 0 {
			return -180
		}
		return lon + 180
	}
	return lon
}

// milesPerDegree is the great-circle length of one degree of arc on the
// sphere, in statute miles (≈69.09).
const milesPerDegree = EarthRadiusMiles * math.Pi / 180

// Equirectangular-approximation envelope: EquirectDistance agrees with
// Distance to better than EquirectTolMiles for point pairs up to
// EquirectMaxRadiusMiles apart whose latitudes stay within
// ±EquirectMaxLat. The envelope is pinned by TestEquirectWithinTolerance
// and FuzzEquirectGuard; EquirectOK is the guard hot paths consult before
// taking the cheap local-distance route.
const (
	EquirectMaxRadiusMiles = 260.0
	EquirectMaxLat         = 52.0
	EquirectTolMiles       = 0.1
)

// EquirectDistance returns the local equirectangular ("flat-earth with
// meridian convergence") approximation of the great-circle distance between
// a and b in statute miles:
//
//	d ≈ √( (R·Δφ)² + (R·cos(φ_mid)·Δλ)² )
//
// Longitude differences are taken numerically (no antimeridian wrap), the
// same convention grid rasterization uses. Within the EquirectOK envelope
// the result is exact to EquirectTolMiles; outside it the error grows with
// distance cubed and with latitude, so callers must consult EquirectOK and
// fall back to Distance.
func EquirectDistance(a, b Point) float64 {
	dy := milesPerDegree * (b.Lat - a.Lat)
	dx := milesPerDegree * math.Cos(DegToRad((a.Lat+b.Lat)/2)) * (b.Lon - a.Lon)
	return math.Sqrt(dx*dx + dy*dy)
}

// EquirectOK reports whether EquirectDistance is a valid substitute for
// Distance — error below EquirectTolMiles — for all point pairs up to
// radiusMiles apart whose latitudes stay within ±maxAbsLat. The guard
// rejects polar latitudes (where meridian convergence breaks the midpoint
// cosine) and radii large enough for the sphere's curvature to matter;
// callers near the antimeridian must also ensure longitude differences are
// numeric (no ±180 wrap), which holds for any axis-aligned grid.
func EquirectOK(maxAbsLat, radiusMiles float64) bool {
	return radiusMiles > 0 && radiusMiles <= EquirectMaxRadiusMiles &&
		maxAbsLat >= 0 && maxAbsLat <= EquirectMaxLat
}

// Bounds is an axis-aligned geographic bounding box.
type Bounds struct {
	MinLat, MaxLat float64
	MinLon, MaxLon float64
}

// ContinentalUS approximates the bounding box of the conterminous United
// States. The paper's networks, census blocks, and disaster catalogs are all
// confined to this region.
var ContinentalUS = Bounds{
	MinLat: 24.5, MaxLat: 49.5,
	MinLon: -125.0, MaxLon: -66.9,
}

// Contains reports whether p lies inside (or on the boundary of) b.
func (b Bounds) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Expand grows the box by pad degrees on every side.
func (b Bounds) Expand(pad float64) Bounds {
	return Bounds{
		MinLat: b.MinLat - pad, MaxLat: b.MaxLat + pad,
		MinLon: b.MinLon - pad, MaxLon: b.MaxLon + pad,
	}
}

// Clamp returns p moved to the nearest point inside b.
func (b Bounds) Clamp(p Point) Point {
	if p.Lat < b.MinLat {
		p.Lat = b.MinLat
	}
	if p.Lat > b.MaxLat {
		p.Lat = b.MaxLat
	}
	if p.Lon < b.MinLon {
		p.Lon = b.MinLon
	}
	if p.Lon > b.MaxLon {
		p.Lon = b.MaxLon
	}
	return p
}

// BoundsOf returns the tightest bounding box containing all points.
// It panics if points is empty.
func BoundsOf(points []Point) Bounds {
	if len(points) == 0 {
		panic("geo: BoundsOf of empty point set")
	}
	b := Bounds{
		MinLat: points[0].Lat, MaxLat: points[0].Lat,
		MinLon: points[0].Lon, MaxLon: points[0].Lon,
	}
	for _, p := range points[1:] {
		if p.Lat < b.MinLat {
			b.MinLat = p.Lat
		}
		if p.Lat > b.MaxLat {
			b.MaxLat = p.Lat
		}
		if p.Lon < b.MinLon {
			b.MinLon = p.Lon
		}
		if p.Lon > b.MaxLon {
			b.MaxLon = p.Lon
		}
	}
	return b
}
