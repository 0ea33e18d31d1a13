// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7). Each experiment is a function on a Lab — the
// shared world of 23 networks, synthetic census, and fitted hazard model —
// returning a structured result that the cmd/experiments binary renders,
// bench_test.go benchmarks, and EXPERIMENTS.md records.
package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"riskroute/internal/core"
	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/hazard"
	"riskroute/internal/obs"
	"riskroute/internal/population"
	"riskroute/internal/risk"
	"riskroute/internal/topology"
)

// Config scales the experiment world. The zero value reproduces the paper's
// data sizes; tests shrink everything for speed.
type Config struct {
	// CensusBlocks is the synthetic census size (default 20,000; the
	// paper's census has 215,932 blocks — see DESIGN.md).
	CensusBlocks int
	// EventScale multiplies each disaster catalog's paper size (default 1.0).
	EventScale float64
	// MaxEventsPerCatalog caps any single catalog (default 40,000: the NOAA
	// wind catalog's 143,847 events add cost without changing the risk
	// surface's shape at PoP granularity).
	MaxEventsPerCatalog int
	// CellMiles is the hazard raster resolution (default 20).
	CellMiles float64
	// AlphaBuckets configures the routing engines (default 16).
	AlphaBuckets int
	// ReplayStride evaluates every k-th advisory in the disaster case
	// studies (default 5, giving 12-14 points per storm — the granularity
	// of the paper's Figures 12 and 13). Negative strides are rejected.
	ReplayStride int
	// CVCandidates is the size of Table 1's bandwidth search grid
	// (default 18 log-spaced values in [2, 600] miles).
	CVCandidates int
	// CVMaxEvents caps the per-catalog sample used during Table 1's
	// cross-validation (default 2500).
	CVMaxEvents int
	// Seed drives all synthetic generation (default 1).
	Seed uint64
	// Workers bounds the goroutines of every parallel stage — hazard
	// fitting, cross-validation, population assignment, the routing engines
	// (zero means GOMAXPROCS, one forces sequential). Every stage is
	// bit-deterministic in the worker count, so Workers never changes a
	// table or figure.
	Workers int
	// Metrics, when non-nil, receives experiment telemetry: per-experiment
	// wall times (experiments.<name>.seconds gauges) plus everything the
	// underlying hazard fit and routing engines record.
	Metrics *obs.Registry
	// Trace, when non-nil, is the parent span: each experiment entry point
	// opens a child named after itself, and the hazard fit and engine builds
	// nest under it.
	Trace *obs.Span
	// Logger, when non-nil, receives structured progress records from the
	// lab and every layer beneath it (hazard fit, engine builds, sweeps).
	Logger *slog.Logger
	// Ledger, when non-nil, is the run manifest under construction: NewLab
	// records the world's configuration knobs and the SHA-256 checksums of
	// the generated datasets (topology corpus, per-catalog events) into it,
	// so two runs are provably over identical inputs.
	Ledger *obs.Ledger
}

func (c Config) withDefaults() Config {
	if c.CensusBlocks == 0 {
		c.CensusBlocks = 20000
	}
	if c.EventScale == 0 {
		c.EventScale = 1.0
	}
	if c.MaxEventsPerCatalog == 0 {
		c.MaxEventsPerCatalog = 40000
	}
	if c.CellMiles == 0 {
		c.CellMiles = 20
	}
	if c.AlphaBuckets == 0 {
		c.AlphaBuckets = 16
	}
	if c.ReplayStride == 0 {
		c.ReplayStride = 5
	}
	if c.CVCandidates == 0 {
		c.CVCandidates = 18
	}
	if c.CVMaxEvents == 0 {
		c.CVMaxEvents = 2500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Lab is the shared experimental world.
type Lab struct {
	Cfg      Config
	Networks []*topology.Network // all 23, Tier-1 first
	Tier1    []*topology.Network
	Regional []*topology.Network
	Census   *population.Census
	Model    *hazard.Model

	opts        core.Options // every lab engine's: buckets, workers, telemetry
	mu          sync.Mutex
	assignments map[string]*population.Assignment
	popRisks    map[string][]float64
}

// NewLab generates the world: the 23 networks, the synthetic census, the
// five disaster catalogs, and the fitted hazard model (using the paper's
// Table 1 bandwidths; Table1 re-runs the cross-validation itself).
func NewLab(cfg Config) (*Lab, error) {
	cfg = cfg.withDefaults()
	if err := datasets.CheckCensusBlocks(cfg.CensusBlocks); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if cfg.ReplayStride < 1 {
		return nil, fmt.Errorf("experiments: replay stride %d below 1 (0 means the default)", cfg.ReplayStride)
	}
	nets := datasets.BuildNetworks()

	lab := &Lab{
		Cfg:         cfg,
		Networks:    nets,
		Census:      datasets.GenerateCensus(datasets.CensusConfig{Blocks: cfg.CensusBlocks, Seed: cfg.Seed}),
		assignments: make(map[string]*population.Assignment),
		popRisks:    make(map[string][]float64),
		opts: core.Options{AlphaBuckets: cfg.AlphaBuckets, Workers: cfg.Workers,
			Metrics: cfg.Metrics, Trace: cfg.Trace, Logger: cfg.Logger},
	}
	for _, n := range nets {
		switch n.Tier {
		case topology.Tier1:
			lab.Tier1 = append(lab.Tier1, n)
		case topology.Regional:
			lab.Regional = append(lab.Regional, n)
		}
	}

	var sources []hazard.Source
	for _, et := range datasets.EventTypes {
		sources = append(sources, hazard.Source{
			Name:      et.String(),
			Events:    lab.EventsFor(et),
			Bandwidth: et.PaperBandwidth(),
		})
	}
	if err := lab.recordProvenance(sources); err != nil {
		return nil, fmt.Errorf("experiments: ledger: %w", err)
	}
	model, err := hazard.Fit(sources, hazard.FitConfig{
		CellMiles: cfg.CellMiles,
		Workers:   cfg.Workers,
		Metrics:   cfg.Metrics,
		Trace:     cfg.Trace,
		Logger:    cfg.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: hazard fit: %w", err)
	}
	lab.Model = model
	return lab, nil
}

// recordProvenance writes the world's configuration knobs and input
// checksums into the run ledger (no-op when Config.Ledger is nil). The
// "inputs" are the generated datasets themselves — the topology corpus in
// its serialized text form and each disaster catalog's coordinates — so the
// manifest pins what the run actually computed over, independent of the
// generator's implementation.
func (l *Lab) recordProvenance(sources []hazard.Source) error {
	led := l.Cfg.Ledger
	if led == nil {
		return nil
	}
	led.SetConfig("census_blocks", l.Cfg.CensusBlocks)
	led.SetConfig("event_scale", l.Cfg.EventScale)
	led.SetConfig("max_events_per_catalog", l.Cfg.MaxEventsPerCatalog)
	led.SetConfig("cell_miles", l.Cfg.CellMiles)
	led.SetConfig("alpha_buckets", l.Cfg.AlphaBuckets)
	led.SetConfig("replay_stride", l.Cfg.ReplayStride)
	led.SetConfig("seed", l.Cfg.Seed)

	var buf bytes.Buffer
	if err := topology.Write(&buf, l.Networks); err != nil {
		return err
	}
	if err := led.AddInput("topology-corpus", &buf); err != nil {
		return err
	}
	for _, s := range sources {
		buf.Reset()
		for _, p := range s.Events {
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(p.Lat))
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(p.Lon))
		}
		if err := led.AddInput("events-"+s.Name, &buf); err != nil {
			return err
		}
	}
	return nil
}

// EventsFor generates the (scaled, capped) synthetic catalog for one event
// type, deterministically for the lab's seed.
func (l *Lab) EventsFor(et datasets.EventType) []geo.Point {
	return datasets.GenerateEvents(et, l.eventCount(et), l.Cfg.Seed)
}

// eventCount is one catalog's size at the lab's scale: the paper's count
// times EventScale, at least 50 and at most MaxEventsPerCatalog.
func (l *Lab) eventCount(et datasets.EventType) int {
	return min(max(int(float64(et.PaperCount())*l.Cfg.EventScale), 50), l.Cfg.MaxEventsPerCatalog)
}

// Assignment returns (and caches) the network's population assignment.
func (l *Lab) Assignment(n *topology.Network) (*population.Assignment, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a, ok := l.assignments[n.Name]; ok {
		return a, nil
	}
	a, err := population.AssignWorkers(l.Census, n, l.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	l.assignments[n.Name] = a
	return a, nil
}

// PoPRisks returns (and caches) the network's historical per-PoP risk.
func (l *Lab) PoPRisks(n *topology.Network) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r, ok := l.popRisks[n.Name]; ok {
		return r
	}
	r := l.Model.PoPRisks(n)
	l.popRisks[n.Name] = r
	return r
}

// EngineFor builds a routing engine for a network under the given tuning
// parameters, with optional per-PoP forecast risk.
func (l *Lab) EngineFor(n *topology.Network, params risk.Params, forecast []float64) (*core.Engine, error) {
	asg, err := l.Assignment(n)
	if err != nil {
		return nil, err
	}
	return core.New(&risk.Context{
		Net:       n,
		Hist:      l.PoPRisks(n),
		Forecast:  forecast,
		Fractions: asg.Fractions,
		Params:    params,
	}, l.opts)
}

// track times one experiment: it opens a child span named after the
// experiment and returns the closer that callers defer. Wall time lands in
// experiments.<name>.seconds so the `riskroute stats` report shows where a
// full reproduction run spends its time.
func (l *Lab) track(name string) func() {
	started := time.Now()
	span := l.Cfg.Trace.Child(name)
	return func() {
		span.End()
		seconds := time.Since(started).Seconds()
		l.Cfg.Metrics.Gauge("experiments." + name + ".seconds").Set(seconds)
		l.Cfg.Metrics.Counter("experiments.runs_total").Inc()
		obs.LoggerOrNop(l.Cfg.Logger).Info("experiment complete",
			"experiment", name, "seconds", seconds)
	}
}

// NetworkByName finds a lab network by name, or nil.
func (l *Lab) NetworkByName(name string) *topology.Network {
	for _, n := range l.Networks {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// RegionalNames returns the 16 regional network names in build order.
func (l *Lab) RegionalNames() []string {
	out := make([]string, len(l.Regional))
	for i, n := range l.Regional {
		out[i] = n.Name
	}
	return out
}
