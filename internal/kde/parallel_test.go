package kde

import (
	"math"
	"math/rand"
	"testing"

	"riskroute/internal/geo"
	"riskroute/internal/parallel"
	"riskroute/internal/stats"
)

func randomEvents(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{
			Lat: 26 + rng.Float64()*22,
			Lon: -122 + rng.Float64()*52,
		}
	}
	return out
}

// oracleEvents is randomEvents plus events the row chunks must treat as the
// oracle does: outside the grid (their windows clamp to its edge) and above
// geo.EquirectMaxLat (the exact path even when the grid allows the fast
// one).
func oracleEvents(n int, seed int64) []geo.Point {
	return append(randomEvents(n, seed),
		geo.Point{Lat: 30, Lon: -140}, geo.Point{Lat: 15, Lon: -90},
		geo.Point{Lat: 60, Lon: -60}, geo.Point{Lat: 53, Lon: -100},
		geo.Point{Lat: 55.5, Lon: -80}, geo.Point{Lat: 52.01, Lon: -123})
}

// splatOracle is the splat the row chunks replaced: two static halves of
// the rows, each scanning every event and computing each column's
// longitude term on every row. It is the reference the chunked splat must
// match bit for bit.
func splatOracle(fields [][]float64, fieldOf []int, events []geo.Point, sigma, cutoff float64, grid geo.Grid) {
	s := newSplatter(grid, sigma, cutoff)
	bounds := [3]int{0, grid.Rows / 2, grid.Rows}
	parallel.ForEach(2, 2, func(h int) {
		s.oracleRows(fields, fieldOf, events, bounds[h], bounds[h+1])
	})
}

func (s *splatter) oracleRows(fields [][]float64, fieldOf []int, events []geo.Point, ra, rb int) {
	grid := s.grid
	cellW := grid.CellWidth()
	cellH := grid.CellHeight()
	lon0 := grid.Bounds.MinLon + 0.5*cellW
	lat0 := grid.Bounds.MinLat + 0.5*cellH
	const milesPerDeg = geo.EarthRadiusMiles * math.Pi / 180

	for ei, ev := range events {
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
				lonc := grid.Bounds.MinLon + (float64(c)+0.5)*cellW
				sinLon := math.Sin(geo.DegToRad(lonc-ev.Lon) / 2)
				h := a + b*sinLon*sinLon
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

// TestRasterizeDeterministicAcrossWorkers: every cell is computed wholly by
// one row chunk, scanning its events in catalog order, so the field must
// be bit-identical at any worker count, and bit-identical to the static
// halves splat it replaced. Bandwidth 15 takes the equirect path, 80 and
// 300 the haversine path (at 300 the row window is wider than the grid).
func TestRasterizeDeterministicAcrossWorkers(t *testing.T) {
	events := oracleEvents(400, 11)
	grid := geo.NewGrid(geo.ContinentalUS.Expand(2), 60, 120)
	for _, bw := range []float64{15, 80, 300} {
		est := New(events, bw)
		want := make([]float64, grid.Size())
		splatOracle([][]float64{want}, nil, events, bw, 5, grid)
		norm := 1 / (2 * math.Pi * bw * bw * float64(len(events)))
		for i := range want {
			want[i] *= norm
		}
		for _, w := range []int{1, 2, 3, 8} {
			got := RasterizeWorkers(est, grid, 5, w)
			for i := range want {
				if math.Float64bits(got.Values[i]) != math.Float64bits(want[i]) {
					t.Fatalf("bw=%v workers=%d: cell %d = %x, want %x",
						bw, w, i, got.Values[i], want[i])
				}
			}
		}
	}
}

// TestSplatIntoDeterministicAcrossWorkers: SelectBandwidth's form, which
// routes each event into its fold's unnormalized field, must give every
// fold the oracle's field bit for bit at any worker count.
func TestSplatIntoDeterministicAcrossWorkers(t *testing.T) {
	events := oracleEvents(300, 7)
	grid := geo.NewGrid(geo.ContinentalUS.Expand(2), 40, 80)
	const k = 5
	foldOf := make([]int, len(events))
	for i := range foldOf {
		foldOf[i] = i % k
	}
	newFields := func() [][]float64 {
		fields := make([][]float64, k)
		for f := range fields {
			fields[f] = make([]float64, grid.Size())
		}
		return fields
	}
	for _, bw := range []float64{12, 60, 300} {
		want := newFields()
		splatOracle(want, foldOf, events, bw, 5, grid)
		for _, w := range []int{1, 2, 3, 8} {
			got := newFields()
			splatInto(got, foldOf, events, bw, 5, grid, w)
			for f := range want {
				for i := range want[f] {
					if math.Float64bits(got[f][i]) != math.Float64bits(want[f][i]) {
						t.Fatalf("bw=%v workers=%d fold %d: cell %d = %x, want %x",
							bw, w, f, i, got[f][i], want[f][i])
					}
				}
			}
		}
	}
}

// TestSelectBandwidthDeterministicAcrossWorkers: candidate scores are
// slot-written and the per-candidate computation is itself worker-invariant,
// so Scores (not just the winner) must be bit-identical for any Workers.
func TestSelectBandwidthDeterministicAcrossWorkers(t *testing.T) {
	events := randomEvents(300, 29)
	base := CVConfig{
		Candidates: LogGrid(5, 200, 6),
		Seed:       3,
	}
	cfg := base
	cfg.Workers = 1
	want := SelectBandwidth(events, cfg)
	for _, w := range []int{2, 8} {
		cfg := base
		cfg.Workers = w
		got := SelectBandwidth(events, cfg)
		if got.Bandwidth != want.Bandwidth {
			t.Errorf("workers=%d: bandwidth %v, want %v", w, got.Bandwidth, want.Bandwidth)
		}
		for i := range want.Scores {
			if got.Scores[i] != want.Scores[i] {
				t.Errorf("workers=%d: score[%d] = %x, want %x (bit-exact)",
					w, i, got.Scores[i], want.Scores[i])
			}
		}
	}
}

// TestFoldSubtractionMatchesDirect verifies the algebra SelectBandwidth now
// rests on: splatting every event once into its fold's unnormalized field,
// then recovering fold f's train field as (full − fold_f)·1/(2πσ²·N_train),
// equals rasterizing the train set directly — to float re-association noise,
// far below 1e-12 of the field maximum.
func TestFoldSubtractionMatchesDirect(t *testing.T) {
	events := randomEvents(300, 7)
	grid := geo.NewGrid(geo.ContinentalUS.Expand(2), 40, 80)
	const k = 5
	folds := stats.KFold(len(events), k, stats.NewRNG(1))
	foldOf := make([]int, len(events))
	for f, test := range folds {
		for _, i := range test {
			foldOf[i] = f
		}
	}

	for _, bw := range []float64{12, 60} { // equirect path and haversine path
		fields := make([][]float64, k)
		for f := range fields {
			fields[f] = make([]float64, grid.Size())
		}
		splatInto(fields, foldOf, events, bw, 5, grid, 0)
		full := make([]float64, grid.Size())
		for _, fv := range fields {
			for i, v := range fv {
				full[i] += v
			}
		}

		for f := 0; f < k; f++ {
			train := make([]geo.Point, 0, len(events))
			for i, ev := range events {
				if foldOf[i] != f {
					train = append(train, ev)
				}
			}
			direct := Rasterize(New(train, bw), grid, 5)
			maxVal := direct.Max()
			norm := 1 / (2 * math.Pi * bw * bw * float64(len(train)))
			for i := range full {
				recon := (full[i] - fields[f][i]) * norm
				if diff := math.Abs(recon - direct.Values[i]); diff > 1e-12*maxVal {
					t.Fatalf("bw=%v fold %d cell %d: subtracted %v vs direct %v (diff %g > 1e-12 rel)",
						bw, f, i, recon, direct.Values[i], diff)
				}
			}
		}
	}
}

// TestRasterizeEquirectMatchesBruteForce checks the equirect fast path
// against a brute-force splat that uses the exact haversine distance for
// both the cutoff and the kernel. The 0.1-mile distance tolerance perturbs
// exp(−d²/2σ²) by at most ~d·tol/σ², so cells agree to well under 1% of the
// field maximum.
func TestRasterizeEquirectMatchesBruteForce(t *testing.T) {
	events := randomEvents(120, 5)
	grid := geo.NewGrid(geo.ContinentalUS.Expand(2), 40, 80)
	const bw, cutoff = 15.0, 5.0
	if !geo.EquirectOK(math.Max(math.Abs(grid.Bounds.MinLat), math.Abs(grid.Bounds.MaxLat)), bw*cutoff) {
		t.Fatal("test setup: expected the equirect fast path to be active")
	}
	got := Rasterize(New(events, bw), grid, cutoff)

	want := make([]float64, grid.Size())
	inv2s2 := 1 / (2 * bw * bw)
	radius := cutoff * bw
	for r := 0; r < grid.Rows; r++ {
		for c := 0; c < grid.Cols; c++ {
			center := grid.CellCenter(r, c)
			for _, ev := range events {
				if d := geo.Distance(ev, center); d <= radius {
					want[grid.Index(r, c)] += math.Exp(-d * d * inv2s2)
				}
			}
		}
	}
	norm := 1 / (2 * math.Pi * bw * bw * float64(len(events)))
	maxVal := 0.0
	for i := range want {
		want[i] *= norm
		if want[i] > maxVal {
			maxVal = want[i]
		}
	}
	for i := range want {
		if diff := math.Abs(got.Values[i] - want[i]); diff > 5e-3*maxVal {
			t.Fatalf("cell %d: fast %v vs exact %v (diff %g)", i, got.Values[i], want[i], diff)
		}
	}
}

// BenchmarkKDERasterize times one rasterization serially and at GOMAXPROCS.
// The gulf case packs its events into the grid's southern quarter, where a
// split of the rows into one block per worker would leave all but one
// worker idle.
func BenchmarkKDERasterize(b *testing.B) {
	events := randomEvents(2000, 13)
	gulf := make([]geo.Point, len(events))
	for i, ev := range events {
		gulf[i] = geo.Point{Lat: 24 + (ev.Lat-26)/4, Lon: ev.Lon}
	}
	grid := geo.NewGrid(geo.ContinentalUS.Expand(2), 200, 400)
	for _, bc := range []struct {
		name    string
		events  []geo.Point
		bw      float64
		workers int
	}{
		{"equirect_bw15", events, 15, 1},  // fast path: radius 75 mi
		{"haversine_bw80", events, 80, 1}, // fallback: radius 400 mi
		{"equirect_bw15_gomaxprocs", events, 15, 0},
		{"haversine_bw80_gomaxprocs", events, 80, 0},
		{"gulf_bw80_gomaxprocs", gulf, 80, 0},
	} {
		est := New(bc.events, bc.bw)
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RasterizeWorkers(est, grid, 5, bc.workers)
			}
		})
	}
}

func BenchmarkKDESelectBandwidth(b *testing.B) {
	events := randomEvents(800, 17)
	base := CVConfig{
		Candidates: LogGrid(5, 200, 8),
		Seed:       3,
	}
	for _, w := range []int{1, 4} {
		cfg := base
		cfg.Workers = w
		b.Run(map[int]string{1: "serial", 4: "workers4"}[w], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SelectBandwidth(events, cfg)
			}
		})
	}
}
