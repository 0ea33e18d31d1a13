package geo

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestGridCellRoundTrip(t *testing.T) {
	g := NewGrid(ContinentalUS, 50, 100)
	for row := 0; row < g.Rows; row += 7 {
		for col := 0; col < g.Cols; col += 13 {
			center := g.CellCenter(row, col)
			r, c := g.Cell(center)
			if r != row || c != col {
				t.Errorf("Cell(CellCenter(%d,%d)) = (%d,%d)", row, col, r, c)
			}
		}
	}
}

func TestGridClamping(t *testing.T) {
	g := NewGrid(ContinentalUS, 10, 10)
	r, c := g.Cell(Point{Lat: -89, Lon: -179})
	if r != 0 || c != 0 {
		t.Errorf("far-southwest point should clamp to (0,0), got (%d,%d)", r, c)
	}
	r, c = g.Cell(Point{Lat: 89, Lon: 179})
	if r != g.Rows-1 || c != g.Cols-1 {
		t.Errorf("far-northeast point should clamp to max cell, got (%d,%d)", r, c)
	}
}

func TestGridIndexUnique(t *testing.T) {
	g := NewGrid(ContinentalUS, 7, 9)
	seen := make(map[int]bool)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			i := g.Index(r, c)
			if i < 0 || i >= g.Size() {
				t.Fatalf("index out of range: %d", i)
			}
			if seen[i] {
				t.Fatalf("duplicate index %d at (%d,%d)", i, r, c)
			}
			seen[i] = true
		}
	}
	if len(seen) != g.Size() {
		t.Errorf("expected %d unique indices, got %d", g.Size(), len(seen))
	}
}

func TestNewGridPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewGrid(ContinentalUS, 0, 10) },
		func() { NewGrid(ContinentalUS, 10, -1) },
		func() { NewGrid(Bounds{MinLat: 10, MaxLat: 5, MinLon: 0, MaxLon: 1}, 4, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid grid")
				}
			}()
			fn()
		}()
	}
}

func bruteNearest(points []Point, q Point) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for i, p := range points {
		if d := Distance(q, p); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// TestPointIndexMatchesBruteForce requires Nearest to return the brute-force
// scan's index and distance bit for bit, lowest index first on ties, and
// KNearest(q, 1) to agree. Every third point gets an exact duplicate and
// neighbours one ulp away in latitude and in longitude, and every indexed
// point is also a query, so ties and near-ties at distance 0 are common.
func TestPointIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randIn := func(b Bounds) Point {
		return Point{
			Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
			Lon: b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
		}
	}
	for _, n := range []int{1, 2, 17, 200} {
		points := make([]Point, n)
		for i := range points {
			points[i] = randIn(ContinentalUS)
		}
		for i := 0; i < n; i += 3 {
			p := points[i]
			points = append(points, p,
				Point{Lat: math.Nextafter(p.Lat, 90), Lon: p.Lon},
				Point{Lat: p.Lat, Lon: math.Nextafter(p.Lon, -180)})
		}
		idx := NewPointIndex(points)
		if idx.Len() != len(points) {
			t.Fatalf("Len() = %d, want %d", idx.Len(), len(points))
		}
		queries := append([]Point(nil), points...)
		for q := 0; q < 200; q++ {
			// Query both inside and slightly outside the indexed region.
			queries = append(queries, randIn(ContinentalUS.Expand(3)))
		}
		for _, query := range queries {
			gi, gd := idx.Nearest(query)
			bi, bd := bruteNearest(points, query)
			if gi != bi || math.Float64bits(gd) != math.Float64bits(bd) {
				t.Errorf("n=%d query %v: index gave %d (%v mi), brute force %d (%v mi)",
					n, query, gi, gd, bi, bd)
			}
			if k1 := idx.KNearest(query, 1); len(k1) != 1 || k1[0] != gi {
				t.Errorf("n=%d query %v: KNearest(1) = %v, Nearest = %d", n, query, k1, gi)
			}
		}
	}
}

// TestPointIndexNearestTieAcrossCells: two points one ulp either side of
// the query's meridian are equally far from it, and the lower-index one
// lies in the cell west of the query's, so Nearest scans it after its twin.
// It must still win. For some latitudes its meridian arc exceeds the
// computed distance by rounding, which the prefilter's margin absorbs.
func TestPointIndexNearestTieAcrossCells(t *testing.T) {
	q := Point{Lat: 35, Lon: -95}
	rounded := 0
	for i := 0; i < 200; i++ {
		lat := 35 + 0.0137*float64(i)
		west := Point{Lat: lat, Lon: math.Nextafter(-95, -180)}
		east := Point{Lat: lat, Lon: math.Nextafter(-95, 0)}
		// The corners make the index 4×4 cells of 2.75° over
		// [29.5, 40.5]×[-100.5, -89.5], so -95 is a column boundary.
		points := []Point{west, {Lat: 30, Lon: -100}, {Lat: 40, Lon: -90}, east}
		idx := NewPointIndex(points)
		qr, qc := idx.grid.Cell(q)
		if wr, wc := idx.grid.Cell(west); wr != qr || wc != qc-1 {
			t.Fatalf("west point in cell (%d,%d), want (%d,%d)", wr, wc, qr, qc-1)
		}
		if er, ec := idx.grid.Cell(east); er != qr || ec != qc {
			t.Fatalf("east point in cell (%d,%d), want (%d,%d)", er, ec, qr, qc)
		}
		d := Distance(q, west)
		if d != Distance(q, east) {
			t.Fatalf("lat %v: the twins are %v and %v mi away", lat, d, Distance(q, east))
		}
		if EarthRadiusMiles*math.Abs(DegToRad(west.Lat)-DegToRad(q.Lat)) > d {
			rounded++
		}
		if gi, gd := idx.Nearest(q); gi != 0 || gd != d {
			t.Errorf("lat %v: Nearest = %d (%v mi), want 0 (%v mi)", lat, gi, gd, d)
		}
		if k1 := idx.KNearest(q, 1); k1[0] != 0 {
			t.Errorf("lat %v: KNearest(1) = %v, want [0]", lat, k1)
		}
	}
	if rounded == 0 {
		t.Fatal("no latitude put the meridian arc above the computed distance")
	}
}

func TestPointIndexClusteredPoints(t *testing.T) {
	// Dense cluster plus one remote point stresses the ring termination bound.
	points := []Point{{40, -74}, {40.001, -74.001}, {40.002, -74.002}, {25, -120}}
	idx := NewPointIndex(points)
	gi, _ := idx.Nearest(Point{Lat: 26, Lon: -119})
	if gi != 3 {
		t.Errorf("remote query matched %d, want 3", gi)
	}
	gi, _ = idx.Nearest(Point{Lat: 40.0005, Lon: -74.0005})
	bi, _ := bruteNearest(points, Point{Lat: 40.0005, Lon: -74.0005})
	if gi != bi {
		t.Errorf("cluster query matched %d, want %d", gi, bi)
	}
}

// bruteKNearest sorts all indices by (distance, index) — the reference
// ordering KNearest must reproduce exactly.
func bruteKNearest(points []Point, q Point, k int) []int {
	type cand struct {
		i int
		d float64
	}
	cands := make([]cand, len(points))
	for i, p := range points {
		cands[i] = cand{i, Distance(q, p)}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].i < cands[b].i
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := range out {
		out[i] = cands[i].i
	}
	return out
}

func TestPointIndexKNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randIn := func(b Bounds) Point {
		return Point{
			Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
			Lon: b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
		}
	}
	for _, n := range []int{1, 2, 17, 200} {
		points := make([]Point, n)
		for i := range points {
			points[i] = randIn(ContinentalUS)
		}
		idx := NewPointIndex(points)
		for q := 0; q < 100; q++ {
			query := randIn(ContinentalUS.Expand(3))
			for _, k := range []int{1, 2, 4, n, n + 5} {
				got := idx.KNearest(query, k)
				want := bruteKNearest(points, query, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d k=%d query %v: KNearest = %v, want %v", n, k, query, got, want)
				}
			}
			// KNearest(q, 1) and Nearest(q) must agree exactly.
			ni, _ := idx.Nearest(query)
			if k1 := idx.KNearest(query, 1); len(k1) != 1 || k1[0] != ni {
				t.Fatalf("n=%d query %v: KNearest(1) = %v, Nearest = %d", n, query, k1, ni)
			}
		}
	}
}

func TestPointIndexKNearestDegenerate(t *testing.T) {
	// Duplicate coordinates force pure index-order tie-breaking.
	points := []Point{{40, -74}, {40, -74}, {40, -74}, {41, -75}}
	idx := NewPointIndex(points)
	got := idx.KNearest(Point{Lat: 40, Lon: -74}, 3)
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("tied KNearest = %v, want [0 1 2]", got)
	}
	if got := idx.KNearest(Point{Lat: 40, Lon: -74}, 0); got != nil {
		t.Errorf("KNearest(k=0) = %v, want nil", got)
	}
	if got := idx.KNearest(Point{Lat: 40, Lon: -74}, 100); len(got) != len(points) {
		t.Errorf("KNearest(k>n) returned %d indices, want %d", len(got), len(points))
	}
}

func TestPointIndexEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPointIndex(nil) should panic")
		}
	}()
	NewPointIndex(nil)
}

func BenchmarkDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Distance(nyc, la)
	}
}

func BenchmarkPointIndexNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	points := make([]Point, 800)
	for i := range points {
		points[i] = Point{
			Lat: ContinentalUS.MinLat + rng.Float64()*(ContinentalUS.MaxLat-ContinentalUS.MinLat),
			Lon: ContinentalUS.MinLon + rng.Float64()*(ContinentalUS.MaxLon-ContinentalUS.MinLon),
		}
	}
	idx := NewPointIndex(points)
	queries := make([]Point, 1024)
	for i := range queries {
		queries[i] = Point{
			Lat: ContinentalUS.MinLat + rng.Float64()*(ContinentalUS.MaxLat-ContinentalUS.MinLat),
			Lon: ContinentalUS.MinLon + rng.Float64()*(ContinentalUS.MaxLon-ContinentalUS.MinLon),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Nearest(queries[i%len(queries)])
	}
}
