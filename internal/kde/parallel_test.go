package kde

import (
	"math"
	"math/rand"
	"testing"

	"riskroute/internal/geo"
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

// TestRasterizeDeterministicAcrossWorkers: row sharding means every cell is
// computed wholly by one worker, scanning events in catalog order — so the
// field must be bit-identical at any worker count.
func TestRasterizeDeterministicAcrossWorkers(t *testing.T) {
	events := randomEvents(400, 11)
	grid := geo.NewGrid(geo.ContinentalUS.Expand(2), 60, 120)
	for _, bw := range []float64{15, 80} { // equirect path and haversine path
		est := New(events, bw)
		want := RasterizeWorkers(est, grid, 5, 1)
		for _, w := range []int{2, 3, 8} {
			got := RasterizeWorkers(est, grid, 5, w)
			for i := range want.Values {
				if got.Values[i] != want.Values[i] {
					t.Fatalf("bw=%v workers=%d: cell %d = %x, want %x",
						bw, w, i, got.Values[i], want.Values[i])
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

func BenchmarkKDERasterize(b *testing.B) {
	events := randomEvents(2000, 13)
	grid := geo.NewGrid(geo.ContinentalUS.Expand(2), 200, 400)
	for _, bc := range []struct {
		name string
		bw   float64
	}{
		{"equirect_bw15", 15},  // fast path: radius 75 mi
		{"haversine_bw80", 80}, // fallback: radius 400 mi
	} {
		est := New(events, bc.bw)
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RasterizeWorkers(est, grid, 5, 1)
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
