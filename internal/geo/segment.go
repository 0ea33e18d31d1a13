package geo

import "math"

// Great-circle segment geometry: the primitives behind the geometric
// disaster families (Saito-style random line cuts), where a scenario is a
// finite great-circle chord and every PoP within a corridor half-width of
// the chord is exposed.

// InitialBearing returns the initial great-circle bearing from a to b in
// degrees clockwise from north, in [0, 360). The bearing from a point to
// itself is 0.
func InitialBearing(a, b Point) float64 {
	if a == b {
		return 0
	}
	lat1 := DegToRad(a.Lat)
	lat2 := DegToRad(b.Lat)
	dLon := DegToRad(b.Lon - a.Lon)
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	brg := RadToDeg(math.Atan2(y, x))
	if brg < 0 {
		brg += 360
	}
	return brg
}

// SegmentDistance returns the distance in statute miles from p to the
// nearest point of the great-circle segment from a to b: the cross-track
// distance when p's along-track projection falls inside the segment, and
// the distance to the nearer endpoint when it falls before a or beyond b.
func SegmentDistance(a, b, p Point) float64 {
	if a == b {
		return Distance(a, p)
	}
	d13 := Distance(a, p) / EarthRadiusMiles
	t13 := DegToRad(InitialBearing(a, p))
	t12 := DegToRad(InitialBearing(a, b))
	// Projection falls before the segment start when the bearing to p
	// points into the back half-plane at a.
	if math.Cos(t13-t12) <= 0 {
		return Distance(a, p)
	}
	s := math.Sin(d13) * math.Sin(t13-t12)
	if s > 1 {
		s = 1
	} else if s < -1 {
		s = -1
	}
	dxt := math.Asin(s)
	// Along-track arc from a to the projection of p onto the great circle.
	dat := 0.0
	if c := math.Cos(dxt); c != 0 {
		ca := math.Cos(d13) / c
		if ca > 1 {
			ca = 1
		} else if ca < -1 {
			ca = -1
		}
		dat = math.Acos(ca)
	}
	if dat*EarthRadiusMiles > Distance(a, b) {
		return Distance(b, p)
	}
	return math.Abs(dxt) * EarthRadiusMiles
}
