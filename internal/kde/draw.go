package kde

import (
	"math"
	"sort"

	"riskroute/internal/geo"
)

// FieldSampler draws points distributed according to a rasterized density
// field by inverse-transform sampling over its cells: each cell's mass is
// its stored density times its geographic area, and a draw picks a cell by
// cumulative mass, then a uniform position inside it. The sampler is a pure
// function of the field — it takes uniforms rather than owning an RNG, so
// callers control the random stream and determinism.
type FieldSampler struct {
	field *Field
	cum   []float64 // cumulative area-weighted cell masses, row-major
	total float64
}

// NewFieldSampler precomputes the cumulative mass table for f. Negative
// cell values (fields are densities, but Add/Scale allow anything)
// contribute zero mass.
func NewFieldSampler(f *Field) *FieldSampler {
	g := f.Grid
	cum := make([]float64, g.Size())
	total := 0.0
	hMiles := g.CellHeight() * 69.0
	for r := 0; r < g.Rows; r++ {
		lat := g.CellCenter(r, 0).Lat
		wMiles := g.CellWidth() * 69.0 * math.Cos(geo.DegToRad(lat))
		area := hMiles * wMiles
		for c := 0; c < g.Cols; c++ {
			i := g.Index(r, c)
			if v := f.Values[i]; v > 0 {
				total += v * area
			}
			cum[i] = total
		}
	}
	return &FieldSampler{field: f, cum: cum, total: total}
}

// Empty reports whether the field carries no positive mass, in which case
// PointAt has no distribution to draw from.
func (s *FieldSampler) Empty() bool { return s.total <= 0 }

// PointAt maps three uniforms in [0, 1) to one draw from the field's
// distribution: u1 selects the cell by inverse CDF over cumulative mass,
// u2 and u3 place the point uniformly inside the cell (u2 along latitude,
// u3 along longitude). Identical uniforms always yield the identical point.
// It panics on an Empty sampler.
func (s *FieldSampler) PointAt(u1, u2, u3 float64) geo.Point {
	if s.Empty() {
		panic("kde: PointAt on a sampler over an empty field")
	}
	target := u1 * s.total
	// First cell whose cumulative mass strictly exceeds the target: runs of
	// equal cumulative values (zero-mass cells) are skipped, so the selected
	// cell always carries the mass the target landed in.
	i := sort.Search(len(s.cum), func(i int) bool { return s.cum[i] > target })
	if i >= len(s.cum) {
		i = len(s.cum) - 1
	}
	g := s.field.Grid
	r, c := i/g.Cols, i%g.Cols
	return geo.Point{
		Lat: g.Bounds.MinLat + (float64(r)+u2)*g.CellHeight(),
		Lon: g.Bounds.MinLon + (float64(c)+u3)*g.CellWidth(),
	}
}
