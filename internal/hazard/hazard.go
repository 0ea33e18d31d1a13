// Package hazard builds the paper's historical outage risk model
// (Section 5.2): per-catalog Gaussian kernel density estimates whose sum is
// the aggregate geo-spatial outage likelihood o_h evaluated at network PoPs.
// Bandwidths come either from explicit configuration (the trained values of
// the paper's Table 1 by default) or from k-fold cross-validation.
//
// # Risk units
//
// Kernel densities integrate to one over the plane and so carry units of
// probability per square mile, giving raw values around 1e-5. The paper's
// tuning parameters (λ_h = 10⁵, λ_f = 10³) only make sense when the risk
// term is commensurate with path distances in miles, so this package
// expresses risk in calibrated units — kernel densities scaled by
// RiskScale = 2·10⁵. With that unit, λ_h·o_h·α_ij lands in the tens-to-
// hundreds-of-miles range for Tier-1 networks, reproducing the paper's
// trade-off regime. DESIGN.md discusses the calibration.
package hazard

import (
	"fmt"
	"log/slog"
	"math"
	"time"

	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/kde"
	"riskroute/internal/obs"
	"riskroute/internal/resilience"
	"riskroute/internal/topology"
)

// RiskScale converts kernel densities (per square mile) to the package's
// calibrated risk unit (see the package comment).
const RiskScale = 2e5

// Source is one disaster catalog to fold into the risk model.
type Source struct {
	Name   string
	Events []geo.Point
	// Bandwidth is the kernel bandwidth in miles. Zero means "select by
	// cross-validation" during Fit.
	Bandwidth float64
	// Scale multiplies the fitted density surface (zero means 1). Kernel
	// densities integrate to one regardless of catalog size, so comparing
	// models built from different event *rates* — seasonal slices of an
	// annual catalog, or catalogs covering different time spans — requires
	// scaling each surface by its relative rate.
	Scale float64
}

// SyntheticSources builds all five synthetic disaster catalogs at the given
// scale (1.0 = the paper's sizes; <= 0 means 1.0; at least 50 events each)
// with the paper's Table 1 bandwidths preassigned. The batch CLI and the
// serving daemon both fit from it, so their risk surfaces match exactly.
func SyntheticSources(scale float64, seed uint64) []Source {
	if scale <= 0 {
		scale = 1
	}
	var out []Source
	for _, et := range datasets.EventTypes {
		count := int(float64(et.PaperCount()) * scale)
		if count < 50 {
			count = 50
		}
		out = append(out, Source{
			Name:      et.String(),
			Events:    datasets.GenerateEvents(et, count, seed),
			Bandwidth: et.PaperBandwidth(),
		})
	}
	return out
}

// SyntheticSeasonalSources builds per-season catalogs for all five event
// types, ready for FitSeasonal. Each catalog's annual event count comes
// from count; each source's Scale is 4× the season's share of annual
// events, so the fitted surfaces carry seasonal intensity.
func SyntheticSeasonalSources(count func(datasets.EventType) int, seed uint64) [4][]Source {
	var out [4][]Source
	for si, season := range datasets.Seasons {
		for _, et := range datasets.EventTypes {
			out[si] = append(out[si], Source{
				Name:      et.String(),
				Events:    datasets.GenerateSeasonalEvents(et, season, count(et), seed),
				Bandwidth: et.PaperBandwidth(),
				Scale:     4 * datasets.SeasonalShare(et, season),
			})
		}
	}
	return out
}

// FittedSource is a catalog with its bandwidth resolved and its density
// surface rasterized.
type FittedSource struct {
	Name      string
	Bandwidth float64
	Events    int
	Field     *kde.Field
}

// Model is the aggregate historical outage risk surface.
type Model struct {
	Sources []FittedSource
	// Lost names the catalogs a lenient Fit dropped (empty at full fidelity).
	Lost []string
	// renorm rescales the aggregate when layers were lost (see Renorm).
	renorm float64
}

// Renorm returns the aggregate re-normalization factor: 1 at full fidelity,
// (fitted+lost)/fitted when a lenient Fit dropped layers — so the surviving
// surfaces keep the aggregate risk at a magnitude commensurate with the
// paper's λ calibration and routing keeps trading distance against risk
// rather than quietly under-weighting it.
func (m *Model) Renorm() float64 {
	if m.renorm == 0 {
		return 1
	}
	return m.renorm
}

// Restore reconstructs a fitted Model from previously captured surfaces —
// the world-snapshot boot path. Evaluation (RiskAt, Probe, PoPRisks) reads
// only the rasterized fields, bandwidths, and the renorm factor, and a
// fitted model keeps nothing else, so a restored model is bit-identical to
// the model the surfaces were captured from. renorm is the captured
// Renorm() value (pass 1, or 0, at full fidelity).
func Restore(sources []FittedSource, lost []string, renorm float64) (*Model, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("hazard: restore with no fitted sources")
	}
	for _, s := range sources {
		if s.Field == nil {
			return nil, fmt.Errorf("hazard: restore source %q has no field", s.Name)
		}
		if len(s.Field.Values) != s.Field.Grid.Size() {
			return nil, fmt.Errorf("hazard: restore source %q field has %d values for a %dx%d grid",
				s.Name, len(s.Field.Values), s.Field.Grid.Rows, s.Field.Grid.Cols)
		}
	}
	m := &Model{Sources: sources, Lost: lost}
	if renorm != 1 {
		m.renorm = renorm
	}
	return m, nil
}

// fitBounds is every fitted surface's raster region: the continental US
// padded 2°.
var fitBounds = geo.ContinentalUS.Expand(2)

// FitConfig controls model fitting.
type FitConfig struct {
	// CellMiles is the target raster cell size in miles. Each source gets
	// its own grid with cells no larger than min(CellMiles, bandwidth/2), so
	// sharply peaked surfaces (the paper's 3.59-mile wind bandwidth) stay
	// resolved. Default 20.
	CellMiles float64
	// Workers bounds the goroutines used for rasterization and for the
	// cross-validation of sources with Bandwidth zero, which runs at kde's
	// defaults (zero means GOMAXPROCS, one forces sequential). Fitted fields
	// and selected bandwidths are bit-identical at every worker count.
	Workers int
	// Lenient makes Fit fail open: a source that cannot be fitted (no
	// events, too few events for cross-validation, negative scale, or an
	// injected fault) is dropped and recorded instead of aborting the whole
	// model, and the survivors are re-normalized (see Model.Renorm). At
	// least one source must fit.
	Lenient bool
	// Injector, when non-nil, is consulted at PointKDEFit keyed by source
	// index.
	Injector *resilience.Injector
	// Health receives per-source fit checkpoints and degradations.
	Health *resilience.Health
	// Metrics, when non-nil, receives fit telemetry under hazard.fit.*:
	// per-source timings, the bandwidth each catalog settled on
	// (hazard.fit.bandwidth_miles.<source>), event and drop counts. It is
	// also threaded into cross-validation (kde.cv.*) for sources whose
	// bandwidth Fit has to select.
	Metrics *obs.Registry
	// Trace, when non-nil, is the parent span under which Fit opens a "fit"
	// child with one nested span per catalog.
	Trace *obs.Span
	// Logger, when non-nil, receives structured fit progress: one Info per
	// fitted source (events, bandwidth, seconds), a Warn per dropped layer,
	// and a summary record. Nil is fine; Fit logs through LoggerOrNop.
	Logger *slog.Logger
}

func (c FitConfig) withDefaults() FitConfig {
	if c.CellMiles == 0 {
		c.CellMiles = 20
	}
	return c
}

// gridFor sizes a raster over fitBounds so cells are at most cellMiles (and
// at most half the bandwidth) on a side, within sane limits.
func gridFor(cellMiles, bandwidth float64) geo.Grid {
	target := cellMiles
	if half := bandwidth / 2; half < target {
		target = half
	}
	if target < 1.5 {
		target = 1.5
	}
	latMiles := (fitBounds.MaxLat - fitBounds.MinLat) * 69.0
	midLat := (fitBounds.MinLat + fitBounds.MaxLat) / 2
	lonMiles := (fitBounds.MaxLon - fitBounds.MinLon) * 69.0 * math.Cos(geo.DegToRad(midLat))
	rows := int(latMiles/target) + 1
	cols := int(lonMiles/target) + 1
	const maxDim = 2600
	if rows > maxDim {
		rows = maxDim
	}
	if cols > maxDim {
		cols = maxDim
	}
	if rows < 8 {
		rows = 8
	}
	if cols < 8 {
		cols = 8
	}
	return geo.NewGrid(fitBounds, rows, cols)
}

// Fit resolves bandwidths (by cross-validation where unspecified) and
// rasterizes each catalog onto a bandwidth-appropriate grid. It panics on an
// empty source list. Strict (the default) fails closed: the first source
// with no events, too few events for cross-validation, or a negative scale
// aborts. With cfg.Lenient the failing source is dropped, recorded in
// cfg.Health and Model.Lost, and the surviving layers are re-normalized; an
// error is returned only when every source fails.
func Fit(sources []Source, cfg FitConfig) (*Model, error) {
	if len(sources) == 0 {
		panic("hazard: Fit with no sources")
	}
	cfg = cfg.withDefaults()
	fit := cfg.Trace.Child("fit")
	defer fit.End()
	lg := obs.LoggerOrNop(cfg.Logger)
	m := &Model{}

	// fitErr classifies one source's failure before any expensive work.
	fitErr := func(i int, s Source) error {
		if err := cfg.Injector.Fail(resilience.PointKDEFit, uint64(i)); err != nil {
			return err
		}
		if len(s.Events) == 0 {
			return fmt.Errorf("hazard: source %q has no events", s.Name)
		}
		if s.Scale < 0 {
			return fmt.Errorf("hazard: source %q has negative scale", s.Name)
		}
		if s.Bandwidth == 0 && len(s.Events) < kde.CVMinEvents {
			return fmt.Errorf("hazard: source %q has %d events, below the %d cross-validation needs",
				s.Name, len(s.Events), kde.CVMinEvents)
		}
		return nil
	}

	for i, s := range sources {
		srcStart := time.Now()
		src := fit.Child(s.Name)
		src.SetAttr("events", len(s.Events))
		if err := fitErr(i, s); err != nil {
			if !cfg.Lenient {
				src.SetAttr("dropped", true)
				src.End()
				return nil, err
			}
			m.Lost = append(m.Lost, s.Name)
			cfg.Health.Degrade("hazard", err, "dropped layer %q", s.Name)
			lg.Warn("hazard layer dropped", "source", s.Name, "err", err.Error())
			cfg.Metrics.Counter("hazard.fit.dropped_total").Inc()
			src.SetAttr("dropped", true)
			src.End()
			continue
		}
		bw := s.Bandwidth
		if bw == 0 {
			cvStart := time.Now()
			cv := kde.CVConfig{Workers: cfg.Workers, Metrics: cfg.Metrics}
			bw = kde.SelectBandwidth(s.Events, cv).Bandwidth
			cfg.Metrics.Histogram("hazard.fit.cv_seconds", obs.LatencyBuckets()).
				Observe(time.Since(cvStart).Seconds())
			src.SetAttr("cv", true)
		}
		grid := gridFor(cfg.CellMiles, bw)
		field := kde.RasterizeWorkers(kde.New(s.Events, bw), grid, 5, cfg.Workers)
		if s.Scale != 0 && s.Scale != 1 {
			field.Scale(s.Scale)
		}
		m.Sources = append(m.Sources, FittedSource{
			Name:      s.Name,
			Bandwidth: bw,
			Events:    len(s.Events),
			Field:     field,
		})
		cfg.Metrics.Counter("hazard.fit.sources_total").Inc()
		cfg.Metrics.Counter("hazard.fit.events_total").Add(int64(len(s.Events)))
		cfg.Metrics.Gauge("hazard.fit.bandwidth_miles." + s.Name).Set(bw)
		src.SetAttr("bandwidth_miles", bw)
		src.End()
		cfg.Metrics.Histogram("hazard.fit.source_seconds", obs.LatencyBuckets()).
			Observe(time.Since(srcStart).Seconds())
		lg.Info("hazard source fitted", "source", s.Name,
			"events", len(s.Events), "bandwidth_miles", bw,
			"seconds", time.Since(srcStart).Seconds())
	}
	if len(m.Sources) == 0 {
		return nil, &resilience.DegradedError{
			Stage: "hazard",
			Lost:  m.Lost,
			Err:   fmt.Errorf("hazard: no source could be fitted"),
		}
	}
	if len(m.Lost) > 0 {
		m.renorm = float64(len(m.Sources)+len(m.Lost)) / float64(len(m.Sources))
		cfg.Health.Degrade("hazard", nil,
			"model re-normalized by %.2f after losing %d of %d layers",
			m.renorm, len(m.Lost), len(sources))
	} else {
		cfg.Health.Record("hazard", "fitted all %d layers", len(m.Sources))
	}
	lg.Info("hazard fit complete", "sources", len(m.Sources),
		"dropped", len(m.Lost), "seconds", fit.Duration().Seconds())
	return m, nil
}

// RiskAt returns the aggregate historical outage risk o_h at p: the sum of
// all source densities, in calibrated risk units, re-normalized when a
// lenient fit lost layers. It is WeightedRiskAt with every weight 1.
func (m *Model) RiskAt(p geo.Point) float64 {
	return m.WeightedRiskAt(p, nil)
}

// SourceRiskAt returns one named source's risk at p (same units as RiskAt).
// It panics on an unknown source name.
func (m *Model) SourceRiskAt(name string, p geo.Point) float64 {
	for i := range m.Sources {
		if m.Sources[i].Name == name {
			return m.Sources[i].Field.At(p) * RiskScale
		}
	}
	panic("hazard: unknown source " + name)
}

// PoPRisks evaluates RiskAt for every PoP of the network, index-aligned.
func (m *Model) PoPRisks(n *topology.Network) []float64 {
	out := make([]float64, len(n.PoPs))
	for i, p := range n.PoPs {
		out[i] = m.RiskAt(p.Location)
	}
	return out
}

// LinkRisks samples the aggregate risk along every link's great-circle span
// at `samples` interior points (endpoints excluded — their risk is already
// the PoPs') and returns the mean per link, index-aligned with Net.Links.
// This feeds risk.Context.SetLinkHist, extending the paper's PoP-only risk
// to fiber-span exposure. samples defaults to 8 when non-positive.
func (m *Model) LinkRisks(n *topology.Network, samples int) []float64 {
	if samples <= 0 {
		samples = 8
	}
	out := make([]float64, len(n.Links))
	for li, l := range n.Links {
		a := n.PoPs[l.A].Location
		b := n.PoPs[l.B].Location
		sum := 0.0
		for s := 1; s <= samples; s++ {
			f := float64(s) / float64(samples+1)
			sum += m.RiskAt(geo.Interpolate(a, b, f))
		}
		out[li] = sum / float64(samples)
	}
	return out
}

// MeanPoPRisk returns the average PoP risk of a network, the "Average PoP
// Risk" characteristic of the paper's Table 3.
func (m *Model) MeanPoPRisk(n *topology.Network) float64 {
	risks := m.PoPRisks(n)
	sum := 0.0
	for _, r := range risks {
		sum += r
	}
	return sum / float64(len(risks))
}

// CombinedField rasterizes the aggregate risk surface onto the given grid
// (for heat-map rendering; routing uses the per-source fields directly).
func (m *Model) CombinedField(grid geo.Grid) *kde.Field {
	out := kde.NewField(grid)
	for r := 0; r < grid.Rows; r++ {
		for c := 0; c < grid.Cols; c++ {
			out.Values[grid.Index(r, c)] = m.RiskAt(grid.CellCenter(r, c))
		}
	}
	return out
}
