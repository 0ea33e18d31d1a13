package geo

import (
	"fmt"
	"math"
)

// Grid is a regular latitude/longitude raster over a bounding box. It is the
// backing structure for kernel-density risk surfaces and population heat maps
// (Figures 3 and 4 of the paper), and doubles as a spatial index for
// nearest-neighbor queries.
type Grid struct {
	Bounds Bounds
	Rows   int // latitude cells, south to north
	Cols   int // longitude cells, west to east
}

// NewGrid builds a grid with the given resolution over bounds.
// It panics on non-positive dimensions or an inverted bounding box.
func NewGrid(bounds Bounds, rows, cols int) Grid {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("geo: invalid grid %dx%d", rows, cols))
	}
	if bounds.MaxLat <= bounds.MinLat || bounds.MaxLon <= bounds.MinLon {
		panic("geo: inverted grid bounds")
	}
	return Grid{Bounds: bounds, Rows: rows, Cols: cols}
}

// CellHeight returns the latitude extent of one cell in degrees.
func (g Grid) CellHeight() float64 {
	return (g.Bounds.MaxLat - g.Bounds.MinLat) / float64(g.Rows)
}

// CellWidth returns the longitude extent of one cell in degrees.
func (g Grid) CellWidth() float64 {
	return (g.Bounds.MaxLon - g.Bounds.MinLon) / float64(g.Cols)
}

// Cell returns the (row, col) of the cell containing p, clamped to the grid.
func (g Grid) Cell(p Point) (row, col int) {
	row = int((p.Lat - g.Bounds.MinLat) / g.CellHeight())
	col = int((p.Lon - g.Bounds.MinLon) / g.CellWidth())
	if row < 0 {
		row = 0
	}
	if row >= g.Rows {
		row = g.Rows - 1
	}
	if col < 0 {
		col = 0
	}
	if col >= g.Cols {
		col = g.Cols - 1
	}
	return row, col
}

// CellCenter returns the geographic center of cell (row, col).
func (g Grid) CellCenter(row, col int) Point {
	return Point{
		Lat: g.Bounds.MinLat + (float64(row)+0.5)*g.CellHeight(),
		Lon: g.Bounds.MinLon + (float64(col)+0.5)*g.CellWidth(),
	}
}

// Index flattens (row, col) to a slice offset in row-major order.
func (g Grid) Index(row, col int) int { return row*g.Cols + col }

// Size returns the total number of cells.
func (g Grid) Size() int { return g.Rows * g.Cols }

// PointIndex is a grid-bucketed spatial index over a fixed point set,
// supporting approximate-free exact nearest-neighbor queries by ring
// expansion. It is used for nearest-neighbor census-block-to-PoP assignment,
// where the query sets are large (hundreds of thousands of blocks).
type PointIndex struct {
	grid    Grid
	points  []Point
	buckets [][]int32 // cell -> indices into points
}

// NewPointIndex indexes points over their bounding box (padded slightly).
// It panics if points is empty.
func NewPointIndex(points []Point) *PointIndex {
	if len(points) == 0 {
		panic("geo: NewPointIndex of empty point set")
	}
	b := BoundsOf(points).Expand(0.5)
	// Roughly one point per cell on average, clamped to a sane range.
	n := len(points)
	dim := 1
	for dim*dim < n {
		dim++
	}
	if dim < 4 {
		dim = 4
	}
	if dim > 256 {
		dim = 256
	}
	g := NewGrid(b, dim, dim)
	idx := &PointIndex{grid: g, points: points, buckets: make([][]int32, g.Size())}
	for i, p := range points {
		r, c := g.Cell(p)
		cell := g.Index(r, c)
		idx.buckets[cell] = append(idx.buckets[cell], int32(i))
	}
	return idx
}

// Nearest returns the index of the point closest to q by great-circle
// distance, and that distance in miles. Ties resolve to the lowest index.
func (idx *PointIndex) Nearest(q Point) (int, float64) {
	g := idx.grid
	qr, qc := g.Cell(q)
	qLat := DegToRad(q.Lat)

	best := -1
	bestDist := 0.0
	consider := func(i int32) {
		p := idx.points[i]
		// The meridian arc R·|Δφ| (Distance's own Δφ) is a lower bound on
		// the great-circle distance. A candidate skips the haversine only
		// when that bound beats the best by a relative and an absolute
		// margin far above both computations' rounding, so every candidate
		// that could tie still reaches Distance.
		if best != -1 && EarthRadiusMiles*math.Abs(DegToRad(p.Lat)-qLat) > bestDist*(1+1e-9)+1e-9 {
			return
		}
		d := Distance(q, p)
		if best == -1 || d < bestDist || (d == bestDist && int(i) < best) {
			best = int(i)
			bestDist = d
		}
	}

	cellMiles := idx.cellMiles()
	maxRing := g.Rows + g.Cols
	for ring := 0; ring <= maxRing; ring++ {
		// Any point in ring r is at least (r-1)*cellMiles away from q, so
		// once that bound exceeds the best distance found, stop.
		if best != -1 && float64(ring-1)*cellMiles > bestDist {
			break
		}
		idx.scanRing(qr, qc, ring, consider)
	}
	return best, bestDist
}

// KNearest returns the indices of the k points closest to q by great-circle
// distance, ordered by (distance, index) ascending — the same tie-break as
// Nearest, so KNearest(q, 1) and Nearest(q) agree exactly. It returns all
// points when k exceeds the indexed set. The ring expansion stops once the
// k-th best distance beats the next ring's lower bound, so queries over
// clustered sets touch a handful of buckets instead of every point.
func (idx *PointIndex) KNearest(q Point, k int) []int {
	if k <= 0 {
		return nil
	}
	if k > len(idx.points) {
		k = len(idx.points)
	}
	g := idx.grid
	qr, qc := g.Cell(q)

	type cand struct {
		i int
		d float64
	}
	best := make([]cand, 0, k)
	worse := func(a, b cand) bool {
		if a.d != b.d {
			return a.d > b.d
		}
		return a.i > b.i
	}
	consider := func(i int32) {
		c := cand{int(i), Distance(q, idx.points[i])}
		if len(best) == k && worse(c, best[k-1]) {
			return
		}
		pos := len(best)
		for pos > 0 && worse(best[pos-1], c) {
			pos--
		}
		if len(best) < k {
			best = append(best, cand{})
		}
		copy(best[pos+1:], best[pos:])
		best[pos] = c
	}

	cellMiles := idx.cellMiles()
	maxRing := g.Rows + g.Cols
	for ring := 0; ring <= maxRing; ring++ {
		// Any point in ring r is at least (r-1)*cellMiles away; once the
		// candidate set is full and its worst member beats that bound, no
		// farther ring can improve it.
		if len(best) == k && float64(ring-1)*cellMiles > best[k-1].d {
			break
		}
		idx.scanRing(qr, qc, ring, consider)
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.i
	}
	return out
}

// cellMiles returns a conservative lower bound on the extent of one index
// cell in miles: a degree of latitude is ~69 miles; a degree of longitude
// shrinks with latitude.
func (idx *PointIndex) cellMiles() float64 {
	g := idx.grid
	maxAbsLat := g.Bounds.MaxLat
	if -g.Bounds.MinLat > maxAbsLat {
		maxAbsLat = -g.Bounds.MinLat
	}
	cosLat := math.Cos(DegToRad(maxAbsLat))
	cellMiles := g.CellHeight() * 69
	if w := g.CellWidth() * 69 * cosLat; w < cellMiles {
		cellMiles = w
	}
	if cellMiles <= 0 {
		cellMiles = 1e-9
	}
	return cellMiles
}

// scanRing visits all cells at Chebyshev distance ring from (qr, qc) and
// reports whether any cell was in range.
func (idx *PointIndex) scanRing(qr, qc, ring int, consider func(int32)) bool {
	g := idx.grid
	visited := false
	visit := func(r, c int) {
		if r < 0 || r >= g.Rows || c < 0 || c >= g.Cols {
			return
		}
		visited = true
		for _, i := range idx.buckets[g.Index(r, c)] {
			consider(i)
		}
	}
	if ring == 0 {
		visit(qr, qc)
		return visited
	}
	for c := qc - ring; c <= qc+ring; c++ {
		visit(qr-ring, c)
		visit(qr+ring, c)
	}
	for r := qr - ring + 1; r <= qr+ring-1; r++ {
		visit(r, qc-ring)
		visit(r, qc+ring)
	}
	return visited
}

// Len returns the number of indexed points.
func (idx *PointIndex) Len() int { return len(idx.points) }
