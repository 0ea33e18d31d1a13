package kde

import (
	"math"
	"time"

	"riskroute/internal/geo"
	"riskroute/internal/obs"
	"riskroute/internal/parallel"
	"riskroute/internal/stats"
)

// CVConfig controls bandwidth cross-validation.
type CVConfig struct {
	// Folds is the number of cross-validation folds (the paper uses 5-way CV).
	Folds int
	// Candidates is the bandwidth grid to search, in miles. If nil, a
	// logarithmic grid spanning [1, 1000] miles is used.
	Candidates []float64
	// MaxEvents caps the catalog size used during CV; larger catalogs are
	// subsampled deterministically. Zero means no cap. The paper's wind
	// catalog has 143,847 events, for which exact leave-fold-out evaluation
	// is quadratic — the cap keeps CV tractable without changing which
	// bandwidth wins (the likelihood surface is smooth in σ).
	MaxEvents int
	// Grid is the histogram grid over which the KL divergence between the
	// held-out empirical distribution and the fitted density is computed.
	// A zero Grid defaults to a 40×80 grid over the continental US.
	Grid geo.Grid
	// Seed drives fold assignment and subsampling.
	Seed uint64
	// Workers bounds the goroutines used to score candidates (zero means
	// GOMAXPROCS, one forces sequential). Scores and the winning bandwidth
	// are bit-identical at every worker count.
	Workers int
	// Metrics, when non-nil, receives cross-validation telemetry under
	// kde.cv.* (sweep timing histogram, events used, candidates scored,
	// resolved worker count, kernel splats performed).
	Metrics *obs.Registry
}

func (c CVConfig) withDefaults() CVConfig {
	if c.Folds == 0 {
		c.Folds = 5
	}
	if c.Candidates == nil {
		c.Candidates = LogGrid(1, 1000, 25)
	}
	if c.Grid.Rows == 0 {
		c.Grid = geo.NewGrid(geo.ContinentalUS.Expand(2), 40, 80)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// MinEvents returns the smallest catalog SelectBandwidth accepts under this
// configuration (it panics below 2×Folds events). Callers wanting to degrade
// rather than crash — hazard.Fit in lenient mode — check this first.
func (c CVConfig) MinEvents() int { return 2 * c.withDefaults().Folds }

// LogGrid returns n logarithmically spaced values from lo to hi inclusive.
func LogGrid(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		panic("kde: invalid log grid")
	}
	out := make([]float64, n)
	ratio := math.Log(hi / lo)
	for i := range out {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(n-1))
	}
	return out
}

// CVResult reports the outcome of bandwidth selection.
type CVResult struct {
	Bandwidth float64   // the winning bandwidth, in miles
	Scores    []float64 // mean KL divergence per candidate (same order)
	Used      int       // number of events actually used after subsampling
}

// SelectBandwidth chooses the kernel bandwidth for events by k-fold
// cross-validation: each fold's held-out events are histogrammed over
// cfg.Grid, the estimator fitted on the remaining events is rasterized over
// the same grid, and the KL divergence D(held-out ‖ fitted) is averaged
// across folds. The candidate minimizing the mean divergence wins. This
// mirrors the paper's Section 5.2 procedure (5-way CV, KL divergence
// criterion). It panics with fewer than 2×Folds events.
//
// Per candidate, every event is splatted exactly once — into its own fold's
// unnormalized field — and each fold's train field is recovered by
// subtracting the fold's field from the total and renormalizing by
// 1/(2πσ²·N_train). Splatting is additive, so this is algebraically the
// train-set rasterization at a k-fold discount (N splats per candidate
// instead of (k−1)·N); see DESIGN.md section 8. Candidates are scored in
// parallel under cfg.Workers with slot-written results, so Scores are
// bit-identical at every worker count.
func SelectBandwidth(events []geo.Point, cfg CVConfig) CVResult {
	cfg = cfg.withDefaults()
	if len(events) < 2*cfg.Folds {
		panic("kde: too few events for cross-validation")
	}
	started := time.Now()
	defer func() {
		cfg.Metrics.Histogram("kde.cv.sweep_seconds", obs.LatencyBuckets()).
			Observe(time.Since(started).Seconds())
		cfg.Metrics.Counter("kde.cv.sweeps_total").Inc()
		cfg.Metrics.Counter("kde.cv.candidates_total").Add(int64(len(cfg.Candidates)))
		cfg.Metrics.Gauge("kde.cv.events_used").Set(float64(len(events)))
	}()
	rng := stats.NewRNG(cfg.Seed)
	if cfg.MaxEvents > 0 && len(events) > cfg.MaxEvents {
		perm := rng.Perm(len(events))
		sub := make([]geo.Point, cfg.MaxEvents)
		for i := range sub {
			sub[i] = events[perm[i]]
		}
		events = sub
	}

	folds := stats.KFold(len(events), cfg.Folds, rng)
	cells := cfg.Grid.Size()

	// Scratch index mapping event -> fold, and per-fold train sizes. This
	// replaces a per-fold membership map: one O(N) pass serves every fold.
	foldOf := make([]int, len(events))
	trainN := make([]float64, cfg.Folds)
	for f, test := range folds {
		for _, i := range test {
			foldOf[i] = f
		}
		trainN[f] = float64(len(events) - len(test))
	}

	// Histogram each fold's held-out events once, up front.
	hists := make([][]float64, cfg.Folds)
	for f := range hists {
		hists[f] = make([]float64, cells)
	}
	for i, ev := range events {
		r, c := cfg.Grid.Cell(ev)
		hists[foldOf[i]][cfg.Grid.Index(r, c)]++
	}

	// Cell areas convert densities (per square mile) to per-cell probability
	// mass so the KL divergence compares like with like.
	areas := make([]float64, cells)
	for r := 0; r < cfg.Grid.Rows; r++ {
		lat := cfg.Grid.CellCenter(r, 0).Lat
		area := cfg.Grid.CellHeight() * 69.0 * cfg.Grid.CellWidth() * 69.0 * math.Cos(geo.DegToRad(lat))
		for c := 0; c < cfg.Grid.Cols; c++ {
			areas[cfg.Grid.Index(r, c)] = area
		}
	}

	workers := parallel.Workers(len(cfg.Candidates), cfg.Workers)
	cfg.Metrics.Gauge("kde.cv.workers").Set(float64(workers))
	cfg.Metrics.Counter("kde.cv.splats_total").
		Add(int64(len(events)) * int64(len(cfg.Candidates)))

	scores := parallel.Map(len(cfg.Candidates), workers, func(ci int) float64 {
		bw := cfg.Candidates[ci]
		// One splat pass over the whole catalog, routed into per-fold
		// unnormalized fields.
		fields := make([][]float64, cfg.Folds)
		for f := range fields {
			fields[f] = make([]float64, cells)
		}
		splatInto(fields, foldOf, events, bw, 5, cfg.Grid, cfg.Workers)

		// Total field, accumulated in fold order (deterministic).
		full := make([]float64, cells)
		for _, fv := range fields {
			for i, v := range fv {
				full[i] += v
			}
		}

		pred := make([]float64, cells)
		sum := 0.0
		for f := 0; f < cfg.Folds; f++ {
			norm := 1 / (2 * math.Pi * bw * bw * trainN[f])
			fv := fields[f]
			for i := range pred {
				pred[i] = (full[i] - fv[i]) * norm * areas[i]
			}
			sum += stats.KLDivergence(hists[f], pred)
		}
		return sum / float64(cfg.Folds)
	})

	best := 0
	for i := range scores {
		if scores[i] < scores[best] {
			best = i
		}
	}
	return CVResult{Bandwidth: cfg.Candidates[best], Scores: scores, Used: len(events)}
}
