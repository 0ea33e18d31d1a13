package kde

import (
	"math"

	"riskroute/internal/geo"
	"riskroute/internal/parallel"
)

// Field is a kernel density surface rasterized onto a regular geographic
// grid, with bilinear interpolation between cell centers. Rasterizing once
// and interpolating makes per-PoP risk lookups cheap even for the paper's
// largest catalog (143,847 NOAA wind events), and backs the heat-map figures
// (Figures 3 and 4).
type Field struct {
	Grid   geo.Grid
	Values []float64 // row-major densities at cell centers
}

// NewField allocates a zero field over grid.
func NewField(grid geo.Grid) *Field {
	return &Field{Grid: grid, Values: make([]float64, grid.Size())}
}

// Rasterize evaluates the estimator at every cell center of grid using
// kernel splatting: each event contributes only to cells within cutoff
// standard deviations (beyond which the Gaussian is negligible), so cost
// scales with events × covered cells rather than events × all cells.
// A cutoff of 5 keeps relative error below 1e-5. The grid rows are split
// over GOMAXPROCS workers; see RasterizeWorkers for an explicit bound.
func Rasterize(e *Estimator, grid geo.Grid, cutoff float64) *Field {
	return RasterizeWorkers(e, grid, cutoff, 0)
}

// RasterizeWorkers is Rasterize with an explicit worker bound (zero means
// GOMAXPROCS, one forces sequential). Workers own disjoint grid-row chunks,
// so every cell accumulates its covering events in catalog order and the
// field is bit-identical at any worker count.
func RasterizeWorkers(e *Estimator, grid geo.Grid, cutoff float64, workers int) *Field {
	if cutoff <= 0 {
		cutoff = 5
	}
	f := NewField(grid)
	sigma := e.Bandwidth
	norm := 1 / (2 * math.Pi * sigma * sigma * float64(len(e.Events)))
	newSplatter(grid, sigma, cutoff).splat([][]float64{f.Values}, nil, e.Events, workers, norm)
	return f
}

// splatter carries the per-rasterization invariants of kernel splatting:
// the grid, the Gaussian scale, the cutoff radius, and the choice between
// the exact-within-tolerance local equirectangular distance and the full
// haversine (see splatRows).
type splatter struct {
	grid    geo.Grid
	inv2s2  float64
	radius  float64 // cutoff radius in miles
	radius2 float64
	hRadius float64 // cutoff in haversine space: sin²(radius / 2R)
	latSpan int     // conservative row half-span of the cutoff radius
	// gridEquirect reports that every cell center's latitude is inside the
	// equirectangular envelope for this radius; individual events still
	// check their own latitude before taking the fast path.
	gridEquirect bool
}

func newSplatter(grid geo.Grid, sigma, cutoff float64) *splatter {
	radius := cutoff * sigma
	s := &splatter{
		grid:    grid,
		inv2s2:  1 / (2 * sigma * sigma),
		radius:  radius,
		radius2: radius * radius,
		latSpan: int(radius/69.0/grid.CellHeight()) + 2,
	}
	half := radius / (2 * geo.EarthRadiusMiles)
	if half >= math.Pi/2 {
		s.hRadius = 1 // radius exceeds half the circumference: keep everything
	} else {
		sh := math.Sin(half)
		s.hRadius = sh * sh
	}
	maxAbsLat := math.Max(math.Abs(grid.Bounds.MinLat), math.Abs(grid.Bounds.MaxLat))
	s.gridEquirect = geo.EquirectOK(maxAbsLat, radius)
	return s
}

// splatInto accumulates every event's unnormalized kernel (Σ exp(−d²/2σ²))
// into fields[fieldOf[ei]] — or into fields[0] for all events when fieldOf
// is nil — with splat's row chunking.
func splatInto(fields [][]float64, fieldOf []int, events []geo.Point, sigma, cutoff float64, grid geo.Grid, workers int) {
	newSplatter(grid, sigma, cutoff).splat(fields, fieldOf, events, workers, 1)
}

// splat accumulates the events' kernels into fields and scales every cell
// by norm. The grid rows are cut into chunks that workers draw on demand;
// each chunk carries the events whose row window reaches it, in catalog
// order, and scales its own rows. Every cell is owned by one chunk and
// sums its covering events in catalog order, so the result is
// bit-identical at any worker count (DESIGN.md section 8's slot-writing
// rule). One worker takes the grid whole. With more, a chunk spans the
// kernel's row window, so an event reaches few chunks, but at most a
// quarter of a worker's share of the rows, so a dense band of events is
// split between workers.
func (s *splatter) splat(fields [][]float64, fieldOf []int, events []geo.Point, workers int, norm float64) {
	grid := s.grid
	w := parallel.Workers(grid.Rows, workers)
	size := grid.Rows
	if w > 1 {
		size = max(1, min(max(8, 2*s.latSpan), grid.Rows/(4*w)))
	}
	chunks := parallel.Chunks(grid.Rows, size)
	reach := make([][]int32, len(chunks))
	for ei, ev := range events {
		er, _ := grid.Cell(ev)
		for ci := max(er-s.latSpan, 0) / size; ci <= min(er+s.latSpan, grid.Rows-1)/size; ci++ {
			reach[ci] = append(reach[ci], int32(ei))
		}
	}
	parallel.ForEach(len(chunks), w, func(ci int) {
		ch := chunks[ci]
		s.splatRows(fields, fieldOf, events, reach[ci], ch.Lo, ch.Hi)
		for _, f := range fields {
			rows := f[grid.Index(ch.Lo, 0):grid.Index(ch.Hi, 0)]
			for i := range rows {
				rows[i] *= norm
			}
		}
	})
}

// splatRows splats the events listed in reach, each restricted to grid rows
// [ra, rb). Per-row quantities — cell-center latitude trig, the
// equirectangular meridian-convergence factor — are hoisted out of the
// column loop, and the haversine path computes each column's longitude
// term once per event, so the inner loop is a multiply-add and one exp on
// the fast path.
func (s *splatter) splatRows(fields [][]float64, fieldOf []int, events []geo.Point, reach []int32, ra, rb int) {
	grid := s.grid
	cellW := grid.CellWidth()
	cellH := grid.CellHeight()
	lon0 := grid.Bounds.MinLon + 0.5*cellW // longitude of column 0's center
	lat0 := grid.Bounds.MinLat + 0.5*cellH // latitude of row 0's center
	const milesPerDeg = geo.EarthRadiusMiles * math.Pi / 180
	sinLon := make([]float64, grid.Cols) // per-column sin(Δλ/2) of the current haversine event

	for _, ei := range reach {
		ev := events[ei]
		// Conservative (large) cell spans for the cutoff radius.
		cosLat := math.Cos(geo.DegToRad(ev.Lat))
		if cosLat < 0.2 {
			cosLat = 0.2
		}
		lonSpan := int(s.radius/(69.0*cosLat)/cellW) + 2
		er, ec := grid.Cell(ev)
		r0, r1 := er-s.latSpan, er+s.latSpan
		c0, c1 := ec-lonSpan, ec+lonSpan
		if r0 < ra {
			r0 = ra
		}
		if r1 >= rb {
			r1 = rb - 1
		}
		if c0 < 0 {
			c0 = 0
		}
		if c1 >= grid.Cols {
			c1 = grid.Cols - 1
		}
		if r0 > r1 || c0 > c1 {
			continue
		}
		dst := fields[0]
		if fieldOf != nil {
			dst = fields[fieldOf[ei]]
		}
		if s.gridEquirect && math.Abs(ev.Lat) <= geo.EquirectMaxLat {
			// Fast path: local equirectangular distance, exact to
			// geo.EquirectTolMiles inside the guard envelope. No trig in the
			// column loop — dx advances linearly with the column index.
			for r := r0; r <= r1; r++ {
				latc := lat0 + float64(r)*cellH
				dy := milesPerDeg * (latc - ev.Lat)
				dy2 := dy * dy
				if dy2 > s.radius2 {
					continue
				}
				k := milesPerDeg * math.Cos(geo.DegToRad((ev.Lat+latc)/2))
				dx0 := k * (lon0 + float64(c0)*cellW - ev.Lon)
				step := k * cellW
				row := grid.Index(r, 0)
				for c := c0; c <= c1; c++ {
					dx := dx0 + float64(c-c0)*step
					d2 := dy2 + dx*dx
					if d2 > s.radius2 {
						continue
					}
					dst[row+c] += math.Exp(-d2 * s.inv2s2)
				}
			}
			continue
		}
		// Exact path: haversine with the per-row and per-column terms
		// hoisted. Cell centers use the same expressions as grid.CellCenter
		// and the cutoff test runs in haversine space (h vs sin²(radius/2R)),
		// so accepted cells get the exact same contribution as a
		// geo.Distance cutoff check while rejected cells never pay the
		// sqrt/asin.
		for c := c0; c <= c1; c++ {
			lonc := grid.Bounds.MinLon + (float64(c)+0.5)*cellW
			sinLon[c] = math.Sin(geo.DegToRad(lonc-ev.Lon) / 2)
		}
		lat1 := geo.DegToRad(ev.Lat)
		cosLat1 := math.Cos(lat1)
		for r := r0; r <= r1; r++ {
			lat2 := geo.DegToRad(grid.Bounds.MinLat + (float64(r)+0.5)*cellH)
			dLat := lat2 - lat1
			sinLat := math.Sin(dLat / 2)
			a := sinLat * sinLat
			b := cosLat1 * math.Cos(lat2)
			row := grid.Index(r, 0)
			for c := c0; c <= c1; c++ {
				h := a + b*sinLon[c]*sinLon[c]
				if h > s.hRadius {
					continue
				}
				if h > 1 {
					h = 1
				}
				d := 2 * geo.EarthRadiusMiles * math.Asin(math.Sqrt(h))
				dst[row+c] += math.Exp(-d * d * s.inv2s2)
			}
		}
	}
}

// At returns the bilinearly interpolated density at p. Points outside the
// grid clamp to the boundary cells.
func (f *Field) At(p geo.Point) float64 {
	v, _, _, _, _ := f.stencil(p)
	return v
}

// stencil is the bilinear interpolation behind At and Sample: the density
// at p, the four cells it blends — (r0,c0), (r0,c0+1), (r0+1,c0),
// (r0+1,c0+1), each clamped to the grid — and the offsets tr, tc of p from
// the first cell's center, clamped to [0, 1].
func (f *Field) stencil(p geo.Point) (v float64, rows, cols [4]int, tr, tc float64) {
	g := f.Grid
	// Continuous cell coordinates relative to cell centers.
	fr := (p.Lat-g.Bounds.MinLat)/g.CellHeight() - 0.5
	fc := (p.Lon-g.Bounds.MinLon)/g.CellWidth() - 0.5
	r0 := int(math.Floor(fr))
	c0 := int(math.Floor(fc))
	tr = fr - float64(r0)
	tc = fc - float64(c0)
	r1, c1 := clampIndex(r0+1, g.Rows), clampIndex(c0+1, g.Cols)
	r0, c0 = clampIndex(r0, g.Rows), clampIndex(c0, g.Cols)
	rows, cols = [4]int{r0, r0, r1, r1}, [4]int{c0, c1, c0, c1}
	if tr < 0 {
		tr = 0
	}
	if tr > 1 {
		tr = 1
	}
	if tc < 0 {
		tc = 0
	}
	if tc > 1 {
		tc = 1
	}
	v00, v01 := f.Values[g.Index(r0, c0)], f.Values[g.Index(r0, c1)]
	v10, v11 := f.Values[g.Index(r1, c0)], f.Values[g.Index(r1, c1)]
	v = v00*(1-tr)*(1-tc) + v01*(1-tr)*tc + v10*tr*(1-tc) + v11*tr*tc
	return v, rows, cols, tr, tc
}

// clampIndex clamps a row or column index i to [0, n).
func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// CellSample is one raster cell of a bilinear interpolation stencil: its
// grid coordinates, center, stored density, and the weight it contributed.
type CellSample struct {
	Row    int       `json:"row"`
	Col    int       `json:"col"`
	Center geo.Point `json:"center"`
	Value  float64   `json:"value"`
	Weight float64   `json:"weight"`
}

// PointSample explains one Field.At lookup: the interpolated value plus the
// four-cell stencil it was blended from (weights sum to 1; clamped lookups
// at the grid boundary may repeat a cell). Value is bit-identical to
// At(p), since both come from one stencil, and a property test pins it, so
// probes can be trusted as explanations of the routing surface.
func (f *Field) Sample(p geo.Point) PointSample {
	g := f.Grid
	v, rows, cols, tr, tc := f.stencil(p)
	weights := [4]float64{(1 - tr) * (1 - tc), (1 - tr) * tc, tr * (1 - tc), tr * tc}
	s := PointSample{Value: v}
	for i := 0; i < 4; i++ {
		s.Cells[i] = CellSample{
			Row:    rows[i],
			Col:    cols[i],
			Center: g.CellCenter(rows[i], cols[i]),
			Value:  f.Values[g.Index(rows[i], cols[i])],
			Weight: weights[i],
		}
	}
	return s
}

// PointSample is Sample's result: the interpolated density and its stencil.
type PointSample struct {
	Value float64       `json:"value"`
	Cells [4]CellSample `json:"cells"`
}

// Max returns the largest cell value.
func (f *Field) Max() float64 {
	max := 0.0
	for _, v := range f.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// Add accumulates other into f cell-wise. The grids must be identical.
func (f *Field) Add(other *Field) {
	if f.Grid != other.Grid {
		panic("kde: Add of fields over different grids")
	}
	for i, v := range other.Values {
		f.Values[i] += v
	}
}

// Scale multiplies every cell by s.
func (f *Field) Scale(s float64) {
	for i := range f.Values {
		f.Values[i] *= s
	}
}
