package kde

import (
	"math"
	"testing"
	"testing/quick"

	"riskroute/internal/geo"
	"riskroute/internal/stats"
)

// clusterEvents draws n points from a Gaussian cluster centered at c with
// the given spread in degrees.
func clusterEvents(rng *stats.RNG, c geo.Point, spreadDeg float64, n int) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{
			Lat: c.Lat + rng.Norm()*spreadDeg,
			Lon: c.Lon + rng.Norm()*spreadDeg,
		}
	}
	return out
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty events":   func() { New(nil, 10) },
		"zero bandwidth": func() { New([]geo.Point{{Lat: 1, Lon: 1}}, 0) },
		"nan bandwidth":  func() { New([]geo.Point{{Lat: 1, Lon: 1}}, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDensityPeaksAtEvent(t *testing.T) {
	ev := geo.Point{Lat: 35, Lon: -90}
	e := New([]geo.Point{ev}, 50)
	center := e.DensityAt(ev)
	want := 1 / (2 * math.Pi * 50 * 50)
	if math.Abs(center-want) > want*1e-9 {
		t.Errorf("density at event = %v, want %v", center, want)
	}
	// Monotone decay with distance.
	prev := center
	for _, miles := range []float64{25, 50, 100, 200, 400} {
		p := geo.Destination(ev, 90, miles)
		d := e.DensityAt(p)
		if d >= prev {
			t.Errorf("density not decaying at %v miles: %v >= %v", miles, d, prev)
		}
		prev = d
	}
	// One-sigma value matches the Gaussian profile.
	oneSigma := e.DensityAt(geo.Destination(ev, 0, 50))
	if ratio := oneSigma / center; math.Abs(ratio-math.Exp(-0.5)) > 1e-3 {
		t.Errorf("1σ ratio = %v, want %v", ratio, math.Exp(-0.5))
	}
}

func TestDensityAdditivity(t *testing.T) {
	// Density of a two-event estimator is the average of two singles.
	a := geo.Point{Lat: 33, Lon: -95}
	b := geo.Point{Lat: 41, Lon: -80}
	q := geo.Point{Lat: 37, Lon: -88}
	both := New([]geo.Point{a, b}, 100).DensityAt(q)
	da := New([]geo.Point{a}, 100).DensityAt(q)
	db := New([]geo.Point{b}, 100).DensityAt(q)
	if math.Abs(both-(da+db)/2) > 1e-15 {
		t.Errorf("additivity violated: %v vs %v", both, (da+db)/2)
	}
}

func TestFieldIntegratesToOne(t *testing.T) {
	rng := stats.NewRNG(3)
	events := clusterEvents(rng, geo.Point{Lat: 38, Lon: -95}, 2, 200)
	grid := geo.NewGrid(geo.ContinentalUS.Expand(5), 60, 120)
	for _, bw := range []float64{20, 60, 150} {
		f := Rasterize(New(events, bw), grid, 5)
		if in := f.Integral(); math.Abs(in-1) > 0.08 {
			t.Errorf("bw=%v: field integral = %v, want ~1", bw, in)
		}
	}
}

func TestRasterizeMatchesExact(t *testing.T) {
	rng := stats.NewRNG(5)
	events := clusterEvents(rng, geo.Point{Lat: 40, Lon: -100}, 3, 50)
	grid := geo.NewGrid(geo.ContinentalUS, 50, 100)
	e := New(events, 80)
	f := Rasterize(e, grid, 6)
	// Sample a handful of cells and compare against exact evaluation.
	for r := 5; r < grid.Rows; r += 11 {
		for c := 3; c < grid.Cols; c += 17 {
			p := grid.CellCenter(r, c)
			exact := e.DensityAt(p)
			got := f.Values[grid.Index(r, c)]
			if math.Abs(got-exact) > exact*1e-3+1e-12 {
				t.Errorf("cell (%d,%d): raster %v vs exact %v", r, c, got, exact)
			}
		}
	}
}

func TestFieldBilinearInterpolation(t *testing.T) {
	grid := geo.NewGrid(geo.Bounds{MinLat: 0, MaxLat: 2, MinLon: 0, MaxLon: 2}, 2, 2)
	f := NewField(grid)
	f.Values = []float64{1, 2, 3, 4} // rows south->north
	// At a cell center, interpolation returns the cell value exactly.
	if got := f.At(grid.CellCenter(0, 0)); got != 1 {
		t.Errorf("At(center00) = %v, want 1", got)
	}
	if got := f.At(grid.CellCenter(1, 1)); got != 4 {
		t.Errorf("At(center11) = %v, want 4", got)
	}
	// Dead center of the four cell centers averages all values.
	mid := geo.Point{Lat: 1, Lon: 1}
	if got := f.At(mid); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("At(mid) = %v, want 2.5", got)
	}
	// Outside the grid clamps rather than extrapolating.
	if got := f.At(geo.Point{Lat: -10, Lon: -10}); got != 1 {
		t.Errorf("At(outside SW) = %v, want 1", got)
	}
	if got := f.At(geo.Point{Lat: 10, Lon: 10}); got != 4 {
		t.Errorf("At(outside NE) = %v, want 4", got)
	}
}

func TestFieldInterpolationContinuity(t *testing.T) {
	rng := stats.NewRNG(9)
	events := clusterEvents(rng, geo.Point{Lat: 36, Lon: -98}, 4, 100)
	grid := geo.NewGrid(geo.ContinentalUS, 40, 80)
	f := Rasterize(New(events, 100), grid, 5)
	prop := func(latRaw, lonRaw, stepRaw float64) bool {
		frac := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0.5
			}
			x = math.Abs(x)
			return x - math.Floor(x)
		}
		p := geo.Point{
			Lat: geo.ContinentalUS.MinLat + frac(latRaw)*25,
			Lon: geo.ContinentalUS.MinLon + frac(lonRaw)*58,
		}
		step := frac(stepRaw) * 0.01 // tiny nudge
		q := geo.Point{Lat: p.Lat + step, Lon: p.Lon + step}
		dv := math.Abs(f.At(p) - f.At(q))
		// A tiny move cannot jump more than a small fraction of the max.
		return dv <= f.Max()*0.05+1e-15
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("interpolation continuity failed: %v", err)
	}
}

func TestFieldAddScale(t *testing.T) {
	grid := geo.NewGrid(geo.ContinentalUS, 4, 4)
	a := NewField(grid)
	b := NewField(grid)
	a.Values[3] = 2
	b.Values[3] = 5
	a.Add(b)
	if a.Values[3] != 7 {
		t.Errorf("Add: got %v, want 7", a.Values[3])
	}
	a.Scale(0.5)
	if a.Values[3] != 3.5 {
		t.Errorf("Scale: got %v, want 3.5", a.Values[3])
	}
	other := NewField(geo.NewGrid(geo.ContinentalUS, 5, 5))
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched grids should panic")
		}
	}()
	a.Add(other)
}

func TestLogGrid(t *testing.T) {
	g := LogGrid(1, 100, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-9 {
			t.Errorf("LogGrid[%d] = %v, want %v", i, g[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid LogGrid should panic")
		}
	}()
	LogGrid(10, 1, 5)
}

func TestSelectBandwidthRecoversScale(t *testing.T) {
	// Tight clusters should get a small bandwidth; diffuse data a large one.
	rng := stats.NewRNG(21)
	grid := geo.NewGrid(geo.ContinentalUS.Expand(3), 30, 60)
	candidates := []float64{10, 40, 160, 640}

	tight := make([]geo.Point, 0, 300)
	centers := []geo.Point{{Lat: 30, Lon: -95}, {Lat: 42, Lon: -75}, {Lat: 35, Lon: -110}}
	for _, c := range centers {
		tight = append(tight, clusterEvents(rng, c, 0.4, 100)...)
	}
	diffuse := make([]geo.Point, 300)
	for i := range diffuse {
		diffuse[i] = geo.Point{
			Lat: rng.Range(geo.ContinentalUS.MinLat, geo.ContinentalUS.MaxLat),
			Lon: rng.Range(geo.ContinentalUS.MinLon, geo.ContinentalUS.MaxLon),
		}
	}

	cfg := CVConfig{Folds: 5, Candidates: candidates, Grid: grid, Seed: 7}
	tightBW := SelectBandwidth(tight, cfg).Bandwidth
	diffuseBW := SelectBandwidth(diffuse, cfg).Bandwidth
	if tightBW >= diffuseBW {
		t.Errorf("tight clusters got bandwidth %v >= diffuse %v", tightBW, diffuseBW)
	}
	if tightBW > 40 {
		t.Errorf("tight cluster bandwidth = %v, want <= 40", tightBW)
	}
}

func TestSelectBandwidthSubsampling(t *testing.T) {
	rng := stats.NewRNG(31)
	events := clusterEvents(rng, geo.Point{Lat: 38, Lon: -90}, 2, 500)
	cfg := CVConfig{
		Folds:      3,
		Candidates: []float64{30, 120},
		MaxEvents:  100,
		Grid:       geo.NewGrid(geo.ContinentalUS, 20, 40),
		Seed:       3,
	}
	res := SelectBandwidth(events, cfg)
	if res.Used != 100 {
		t.Errorf("Used = %d, want 100", res.Used)
	}
	if len(res.Scores) != 2 {
		t.Errorf("Scores = %v", res.Scores)
	}
}

func TestSelectBandwidthTooFewEvents(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic with too few events")
		}
	}()
	SelectBandwidth([]geo.Point{{Lat: 1, Lon: 1}}, CVConfig{Folds: 5})
}

func BenchmarkDensityAt1000Events(b *testing.B) {
	rng := stats.NewRNG(41)
	events := clusterEvents(rng, geo.Point{Lat: 38, Lon: -95}, 5, 1000)
	e := New(events, 60)
	q := geo.Point{Lat: 40, Lon: -100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DensityAt(q)
	}
}

func BenchmarkRasterize(b *testing.B) {
	rng := stats.NewRNG(43)
	events := clusterEvents(rng, geo.Point{Lat: 38, Lon: -95}, 5, 2000)
	grid := geo.NewGrid(geo.ContinentalUS, 40, 80)
	e := New(events, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rasterize(e, grid, 5)
	}
}

func BenchmarkFieldAt(b *testing.B) {
	rng := stats.NewRNG(47)
	events := clusterEvents(rng, geo.Point{Lat: 38, Lon: -95}, 5, 500)
	f := Rasterize(New(events, 60), geo.NewGrid(geo.ContinentalUS, 40, 80), 5)
	q := geo.Point{Lat: 39, Lon: -96}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.At(q)
	}
}
