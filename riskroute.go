// Package riskroute is a from-scratch implementation of RiskRoute, the
// framework for mitigating network outage threats introduced by Eriksson,
// Durairajan, and Barford (ACM CoNEXT 2013).
//
// RiskRoute quantifies routing exposure with bit-risk miles — the geographic
// distance traffic travels plus the impact-scaled outage risk it encounters —
// and optimizes over it:
//
//   - risk-averse intradomain routing between arbitrary PoPs (Equation 3),
//   - interdomain bounds across a peering mesh (Section 6.2),
//   - provisioning: the new links or peering relationships that best reduce a
//     network's total outage risk (Equation 4, Section 6.3),
//   - disaster replays driven by parsed NHC hurricane advisories.
//
// The package is a facade over the implementation in internal/…: it exposes
// the domain types as aliases plus constructors, so downstream code never
// imports internal packages. A minimal session:
//
//	net := riskroute.BuiltinNetwork("Level3")
//	census := riskroute.SyntheticCensus(20000, 1)
//	model, _ := riskroute.FitHazard(riskroute.SyntheticHazardSources(1.0, 1), riskroute.HazardFitConfig{})
//	asg, _ := riskroute.AssignPopulation(census, net)
//	ctx := &riskroute.Context{
//		Net: net, Hist: model.PoPRisks(net),
//		Fractions: asg.Fractions, Params: riskroute.PaperParams(),
//	}
//	engine, _ := riskroute.NewEngine(ctx, riskroute.Options{})
//	path := engine.RiskRoutePair(net.PoPIndex("Houston"), net.PoPIndex("Boston"))
//
// The experiments subsystem (Lab) regenerates every table and figure of the
// paper's evaluation; see EXPERIMENTS.md.
//
// The facade exports only what is used. A name is exported while Go code in
// cmd/, examples/, perfbench/ or a root test names it, README documents it,
// the signature of another export names it, or it builds the value of an
// exported config field (Metrics and Span for the Metrics and Trace fields).
// Anything else stays in internal/.
package riskroute

import (
	"io"

	"riskroute/internal/core"
	"riskroute/internal/datasets"
	"riskroute/internal/experiments"
	"riskroute/internal/forecast"
	"riskroute/internal/geo"
	"riskroute/internal/hazard"
	"riskroute/internal/ingest"
	"riskroute/internal/interdomain"
	"riskroute/internal/obs"
	"riskroute/internal/population"
	"riskroute/internal/resilience"
	"riskroute/internal/risk"
	"riskroute/internal/scenario"
	"riskroute/internal/serve"
	"riskroute/internal/snapshot"
	"riskroute/internal/topology"
)

// Point is a latitude/longitude coordinate in decimal degrees.
type Point = geo.Point

// Distance returns the great-circle distance between two points in statute
// miles.
func Distance(a, b Point) float64 { return geo.Distance(a, b) }

// ContinentalUS approximates the conterminous United States bounding box.
var ContinentalUS = geo.ContinentalUS

// Topology types.
type (
	// Network is one ISP's infrastructure map: geolocated PoPs and links.
	Network = topology.Network
	// PoP is a point of presence.
	PoP = topology.PoP
	// Link is an undirected edge between two PoP indices.
	Link = topology.Link
	// Tier classifies networks as Tier-1 or regional.
	Tier = topology.Tier
)

// Network tiers.
const (
	Tier1    = topology.Tier1
	Regional = topology.Regional
)

// ParseTopology reads networks in the native pipe-separated text format.
func ParseTopology(r io.Reader) ([]*Network, error) { return topology.Parse(r) }

// WriteTopology serializes networks in the native text format.
func WriteTopology(w io.Writer, nets []*Network) error { return topology.Write(w, nets) }

// ParseGraphML reads a Topology-Zoo-style GraphML map.
func ParseGraphML(r io.Reader, name string, tier Tier) (*Network, error) {
	return topology.ParseGraphML(r, name, tier)
}

// WriteGraphML serializes a network as Topology-Zoo-compatible GraphML.
func WriteGraphML(w io.Writer, n *Network) error { return topology.WriteGraphML(w, n) }

// BuiltinNetworks returns the embedded 23-network corpus (7 Tier-1 followed
// by 16 regional), matching the paper's Section 4.1 inventory.
func BuiltinNetworks() []*Network { return datasets.BuildNetworks() }

// BuiltinTier1 returns the seven Tier-1 networks.
func BuiltinTier1() []*Network { return datasets.Tier1Networks() }

// BuiltinRegional returns the sixteen regional networks.
func BuiltinRegional() []*Network { return datasets.RegionalNetworks() }

// BuiltinNetwork returns one embedded network by name, or nil.
func BuiltinNetwork(name string) *Network { return datasets.NetworkByName(name) }

// BuiltinPeered reports whether two embedded networks have an AS-level
// relationship in the embedded peering mesh (the paper's Figure 2).
func BuiltinPeered(a, b string) bool { return datasets.ArePeered(a, b) }

// BuiltinPeers returns the embedded peer list of a network.
func BuiltinPeers(name string) []string { return datasets.PeersOf(name) }

// Population types.
type (
	// Census is a queryable census-block collection.
	Census = population.Census
	// Block is one census block.
	Block = population.Block
	// Assignment maps census population onto a network's PoPs.
	Assignment = population.Assignment
)

// NewCensus wraps census blocks.
func NewCensus(blocks []Block) *Census { return population.NewCensus(blocks) }

// SyntheticCensus generates the synthetic continental-US census (see
// DESIGN.md for how it substitutes for the paper's 215,932-block data set).
func SyntheticCensus(blocks int, seed uint64) *Census {
	return datasets.GenerateCensus(datasets.CensusConfig{Blocks: blocks, Seed: seed})
}

// AssignPopulation distributes census population over a network's PoPs by
// nearest-neighbor matching (state-confined for regional networks).
func AssignPopulation(c *Census, n *Network) (*Assignment, error) {
	return population.Assign(c, n)
}

// AssignPopulationWorkers is AssignPopulation with an explicit worker bound
// (zero means GOMAXPROCS, one forces sequential). The assignment is
// bit-identical at every worker count.
func AssignPopulationWorkers(c *Census, n *Network, workers int) (*Assignment, error) {
	return population.AssignWorkers(c, n, workers)
}

// GravityImpact derives a gravity-model traffic matrix from an assignment —
// the paper's suggested traffic-flow alternative to the additive impact
// α_ij = c_i + c_j. Plug the result into Context.Impact.
func GravityImpact(a *Assignment) func(i, j int) float64 {
	return population.GravityImpactFunc(a)
}

// Hazard types.
type (
	// HazardModel is the aggregate historical outage risk surface o_h.
	HazardModel = hazard.Model
	// HazardSource is one disaster catalog with an optional fixed bandwidth.
	HazardSource = hazard.Source
	// HazardFitConfig controls risk-model fitting.
	HazardFitConfig = hazard.FitConfig
)

// SyntheticHazardSources builds all five catalogs at the given scale (1.0 =
// the paper's sizes) with the paper's Table 1 bandwidths preassigned.
func SyntheticHazardSources(scale float64, seed uint64) []HazardSource {
	return hazard.SyntheticSources(scale, seed)
}

// FitHazard fits the historical risk model (cross-validating bandwidths for
// sources that leave Bandwidth zero).
func FitHazard(sources []HazardSource, cfg HazardFitConfig) (*HazardModel, error) {
	return hazard.Fit(sources, cfg)
}

// Seasonal risk modeling (the seasonal-correlation extension the paper
// defers to future work).
type (
	// SeasonalHazard holds one fitted risk model per season.
	SeasonalHazard = hazard.Seasonal
	// HazardWeights emphasizes individual catalogs in the aggregate risk.
	HazardWeights = hazard.Weights
)

// SyntheticSeasonalSources builds per-season catalogs for all five event
// types at the given annual scale, with density scales set to each season's
// relative event rate so the fitted surfaces carry seasonal intensity. Each
// catalog's annual count is its paper size times scale, at least 200.
func SyntheticSeasonalSources(scale float64, seed uint64) [4][]HazardSource {
	if scale <= 0 {
		scale = 1
	}
	return hazard.SyntheticSeasonalSources(func(et datasets.EventType) int {
		return max(200, int(float64(et.PaperCount())*scale))
	}, seed)
}

// FitSeasonalHazard fits one risk model per season.
func FitSeasonalHazard(sourcesBySeason [4][]HazardSource, cfg HazardFitConfig) (*SeasonalHazard, error) {
	return hazard.FitSeasonal(sourcesBySeason, cfg)
}

// SharedRiskResult scores the co-located outage exposure of two networks
// (the paper's future-work "shared risk between multiple ISPs").
type SharedRiskResult = interdomain.SharedRiskResult

// SharedRiskMatrix scores every unordered network pair, sorted by
// descending normalized overlap.
func SharedRiskMatrix(nets []*Network, model *HazardModel, radiusMiles float64) ([]SharedRiskResult, error) {
	return interdomain.SharedRiskMatrix(nets, model, radiusMiles)
}

// Routing types.
type (
	// Params are the bit-risk tuning parameters λ_h and λ_f.
	Params = risk.Params
	// Context binds a network to its risk, forecast, and impact data.
	Context = risk.Context
	// Engine answers RiskRoute queries.
	Engine = core.Engine
	// Options tune the engine.
	Options = core.Options
	// PairResult describes one routed pair.
	PairResult = core.PairResult
)

// PaperParams returns the paper's tuning parameters (λ_h = 10⁵, λ_f = 10³).
func PaperParams() Params { return risk.PaperParams() }

// NewEngine validates the context and builds a routing engine.
func NewEngine(ctx *Context, opts Options) (*Engine, error) { return core.New(ctx, opts) }

// Forecast types.
type (
	// Advisory is one parsed NHC public advisory.
	Advisory = forecast.Advisory
	// ForecastModel maps advisories to forecasted outage risk o_f.
	ForecastModel = forecast.RiskModel
	// Replay is a storm's parsed advisory sequence.
	Replay = forecast.Replay
	// StormScope is a storm's cumulative wind-field footprint.
	StormScope = forecast.Scope
	// BestTrack is an embedded hurricane track.
	BestTrack = datasets.BestTrack
)

// Scope memberships a StormScope's Classify reports for exposed points.
const (
	TropicalForceScope  = forecast.TropicalForce
	HurricaneForceScope = forecast.HurricaneForce
)

// DefaultForecastModel returns the paper's ρ_t = 50, ρ_h = 100.
func DefaultForecastModel() ForecastModel { return forecast.DefaultRiskModel() }

// ParseAdvisory extracts storm state from NHC advisory text.
func ParseAdvisory(text string) (*Advisory, error) { return forecast.ParseAdvisory(text) }

// Hurricanes lists the embedded storms: Irene, Katrina, Sandy.
func Hurricanes() []BestTrack { return append([]BestTrack(nil), datasets.Hurricanes...) }

// HurricaneByName returns an embedded storm track, or nil.
func HurricaneByName(name string) *BestTrack { return datasets.HurricaneByName(name) }

// LoadHurricaneReplay generates the storm's advisory text corpus and parses
// it back, exercising the full NLP path.
func LoadHurricaneReplay(track *BestTrack) (*Replay, error) { return forecast.LoadReplay(track) }

// AdvisoryCorpus renders a storm's advisory bulletins as text.
func AdvisoryCorpus(track *BestTrack) []string { return forecast.GenerateCorpus(track) }

// ScopeOf collects a replay's cumulative wind-field scope.
func ScopeOf(r *Replay) *StormScope { return forecast.ScopeOf(r) }

// Interdomain types.
type (
	// Composite is a multi-network routing graph joined at peering points.
	Composite = interdomain.Composite
	// InterdomainAnalysis wires a composite to the routing engine.
	InterdomainAnalysis = interdomain.Analysis
	// PeeringChoice scores one candidate peer.
	PeeringChoice = interdomain.PeeringChoice
)

// BuildComposite merges networks, joining co-located PoPs of peered pairs.
func BuildComposite(nets []*Network, peered func(a, b string) bool) (*Composite, error) {
	return interdomain.Build(nets, peered)
}

// NewInterdomainAnalysis builds the interdomain risk context and engine.
func NewInterdomainAnalysis(comp *Composite, model *HazardModel, census *Census,
	fc []float64, params Params, opts Options) (*InterdomainAnalysis, error) {
	return interdomain.NewAnalysis(comp, model, census, fc, params, opts)
}

// CandidatePeers lists co-located, unpeered networks for a target network.
func CandidatePeers(nets []*Network, name string, peered func(a, b string) bool) []string {
	return interdomain.CandidatePeers(nets, name, peered)
}

// BestNewPeering scores every candidate peer by the interdomain lower-bound
// bit-risk objective (the paper's Figure 11 analysis).
func BestNewPeering(nets []*Network, peered func(a, b string) bool, name string,
	destNetworks []string, model *HazardModel, census *Census,
	params Params, opts Options) ([]PeeringChoice, error) {
	return interdomain.BestNewPeering(nets, peered, name, destNetworks, model, census, params, opts)
}

// Resilience: fault injection, typed failure taxonomy, and degraded-mode
// health reporting (see DESIGN.md, "Failure semantics and degraded mode").
type (
	// Injector is a deterministic, seeded fault-injection harness. A nil
	// Injector is inert, so production paths pass it unconditionally.
	Injector = resilience.Injector
	// PipelineHealth collects per-stage checkpoints and degradations across
	// a pipeline run.
	PipelineHealth = resilience.Health
	// ValidationError is a positional input-validation failure
	// (source, line, field).
	ValidationError = resilience.ValidationError
	// DegradedError reports a stage that completed at reduced fidelity
	// beyond what lenient mode tolerates.
	DegradedError = resilience.DegradedError
)

// Error classes, matched with errors.Is.
var (
	// ErrValidation matches every ValidationError.
	ErrValidation = resilience.ErrValidation
	// ErrDegraded matches every DegradedError.
	ErrDegraded = resilience.ErrDegraded
)

// Injection points: advisory parsing and one hazard catalog's KDE fit.
const (
	InjectAdvisoryParse = resilience.PointAdvisoryParse
	InjectKDEFit        = resilience.PointKDEFit
)

// Fault modes.
const (
	FaultCorrupt    = resilience.Corrupt
	FaultForceError = resilience.ForceError
)

// NewInjector returns an inactive injector; arm it with Enable/EnableKeys.
// The same seed and rules always fire on the same inputs.
func NewInjector(seed uint64) *Injector { return resilience.NewInjector(seed) }

// NewPipelineHealth returns an empty health report.
func NewPipelineHealth() *PipelineHealth { return resilience.NewHealth() }

// ParseTopologyLenient reads networks in the native format, skipping and
// recording corrupt lines instead of failing, and keeping disconnected
// networks (the engine then routes within components). inj and health may be
// nil.
func ParseTopologyLenient(r io.Reader, inj *Injector, health *PipelineHealth) ([]*Network, error) {
	return topology.ParseLenient(r, inj, health)
}

// ParseGraphMLLenient reads a GraphML map, dropping and recording malformed
// nodes and edges instead of failing.
func ParseGraphMLLenient(r io.Reader, name string, tier Tier, health *PipelineHealth) (*Network, error) {
	return topology.ParseGraphMLLenient(r, name, tier, health)
}

// ParseAdvisoryLenient parses advisory text, zeroing and recording malformed
// optional fields (movement, winds, hurricane radius) instead of failing;
// corrupt required fields still error.
func ParseAdvisoryLenient(text string) (*Advisory, []*ValidationError, error) {
	return forecast.ParseAdvisoryLenient(text)
}

// LoadHurricaneReplayLenient is LoadHurricaneReplay with carry-forward: an
// advisory that fails to parse (or is knocked out by inj) is replaced by the
// last-known storm state, marked Carried, and recorded in health.
func LoadHurricaneReplayLenient(track *BestTrack, inj *Injector, health *PipelineHealth) (*Replay, error) {
	return forecast.LoadReplayLenient(track, inj, health)
}

// CheckAdvisoryCorpus lenient-parses a storm's advisory corpus — optionally
// under injected faults — and returns the replay with the health report.
func CheckAdvisoryCorpus(storm string, texts []string, inj *Injector) (*Replay, *PipelineHealth, error) {
	h := NewPipelineHealth()
	r, err := forecast.ParseCorpusLenient(storm, texts, inj, h)
	return r, h, err
}

// Telemetry: the stdlib-only observability layer (see DESIGN.md,
// "Observability"). A nil *Metrics registry hands out nil handles and a nil
// *Span ignores all operations, so instrumented pipelines thread telemetry
// unconditionally and disabled telemetry costs only nil checks.
type (
	// Metrics is a concurrency-safe registry of counters, gauges, and
	// fixed-bucket histograms.
	Metrics = obs.Registry
	// Span is one timed stage of a pipeline run; spans form a per-run tree.
	Span = obs.Span
	// Histogram is a concurrency-safe fixed-bucket distribution; Quantile
	// estimates percentiles by linear interpolation within a bucket.
	Histogram = obs.Histogram
	// SLOConfig tunes a burn-rate SLO engine (latency and error-ratio
	// objectives over rolling windows).
	SLOConfig = obs.SLOConfig
)

// NewHistogram returns a standalone histogram with the given bucket bounds
// (sorted ascending) — no registry required.
func NewHistogram(bounds []float64) *Histogram { return obs.NewHistogram(bounds) }

// NewMetrics returns an empty telemetry registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTrace starts a root span for one pipeline run.
func NewTrace(name string) *Span { return obs.NewTrace(name) }

// LatencyBuckets returns the default duration histogram bounds in seconds.
func LatencyBuckets() []float64 { return obs.LatencyBuckets() }

// Online serving: the long-lived daemon behind cmd/riskrouted (see
// DESIGN.md, "Serving architecture"). A Server warms the hazard and
// population world once, then answers route/ratio/risk queries from an
// immutable engine snapshot and hot-swaps that snapshot — atomically, with
// a monotonic generation counter — as NHC advisories are ingested.
type (
	// ServeConfig tunes the serving daemon (synthetic-world knobs default
	// to the batch CLI's, so served costs match `riskroute route` exactly).
	ServeConfig = serve.Config
	// Server is the online RiskRoute daemon.
	Server = serve.Server
)

// NewServer warms the serving world and publishes generation 1. The
// returned server's Handler is ready to mount on any net/http listener.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// World snapshot persistence: `riskroute bake` captures the fitted world
// (hazard surfaces, census, per-network assignments and historical risks)
// into a versioned, per-section SHA-256-checksummed binary file, and
// `riskrouted -world-snapshot` boots from it in milliseconds, bit-identical
// to a fresh fit (see DESIGN.md, "World snapshot persistence").
type (
	// WorldSnapshot is a baked serving world (internal/snapshot.World).
	WorldSnapshot = snapshot.World
	// WorldSnapshotLoadOptions tunes snapshot loading (fan-out + telemetry).
	WorldSnapshotLoadOptions = snapshot.LoadOptions
	// WorldSnapshotLoadStats reports what a successful load did.
	WorldSnapshotLoadStats = snapshot.LoadStats
)

// BakeServeWorld runs the full fit pipeline for cfg and captures its output
// as a persistable world snapshot. It shares the serving boot's pipeline, so
// a daemon booting from the baked file serves generation 1 bit-identical to
// one that fitted from scratch with the same configuration.
func BakeServeWorld(cfg ServeConfig) (*WorldSnapshot, error) { return serve.BakeWorld(cfg) }

// WriteWorldSnapshotFile bakes a world to path atomically (temp file +
// rename) and returns the snapshot digest.
func WriteWorldSnapshotFile(path string, world *WorldSnapshot) (string, error) {
	return snapshot.WriteFile(path, world)
}

// LoadWorldSnapshot reads and verifies a baked world, fanning checksum
// verification and bulk decoding over opt.Workers.
func LoadWorldSnapshot(path string, opt WorldSnapshotLoadOptions) (*WorldSnapshot, *WorldSnapshotLoadStats, error) {
	return snapshot.Load(path, opt)
}

// RestoreHazardModel reconstructs the fitted hazard model a snapshot
// persists — bit-identical to the model it was baked from.
func RestoreHazardModel(world *WorldSnapshot) (*HazardModel, error) {
	return serve.RestoreModel(world)
}

// Continuous advisory ingestion: the crash-safe feed poller behind
// riskrouted's -advisory-feed / -journal-dir flags (see DESIGN.md,
// "Continuous ingestion and crash recovery"). The poller journals every
// accepted advisory before swapping it into the serving world, so a killed
// process recovers to the exact pre-crash generation by replay at boot.
type (
	// IngestConfig tunes the advisory feed poller.
	IngestConfig = ingest.Config
	// IngestPoller is the continuous ingestion engine.
	IngestPoller = ingest.Poller
	// IngestSource is one advisory feed (directory or HTTP).
	IngestSource = ingest.Source
)

// NewIngestPoller opens (or creates) the advisory journal and builds the
// poller around a serving surface — normally a *Server. Call Recover before
// Run.
func NewIngestPoller(cfg IngestConfig, sw ingest.Swapper) (*IngestPoller, error) {
	return ingest.NewPoller(cfg, sw)
}

// NewIngestSource builds an advisory feed from a spec: "http(s)://..."
// polls a URL serving the latest bulletin, anything else watches a
// directory for *.txt advisory files.
func NewIngestSource(spec string) (IngestSource, error) { return ingest.NewSource(spec) }

// Scenario ensembles: seeded Monte-Carlo disaster generation (perturbed and
// synthetic hurricane tracks, geometric line cuts and disk outages,
// EMP-style correlated regional failures) swept into per-network outage-risk
// distributions. See DESIGN.md, "Scenario ensembles".
type (
	// ScenarioSpec pairs a family with its ensemble count.
	ScenarioSpec = scenario.FamilySpec
	// Scenario is one generated disaster.
	Scenario = scenario.Scenario
	// ScenarioConfig parameterizes ensemble generation.
	ScenarioConfig = scenario.Config
	// TrackPerturbation is the PerturbedTrack jitter magnitudes; the zero
	// value reproduces the base replay bit-identically.
	TrackPerturbation = scenario.Perturbation
	// EnsembleWorld binds one network to its static risk inputs.
	EnsembleWorld = scenario.World
	// EnsembleConfig tunes ensemble evaluation.
	EnsembleConfig = scenario.SweepConfig
	// EnsembleReport is a full sweep's per-network distributions.
	EnsembleReport = scenario.Report
)

// ParseScenarioSpec parses an ensemble composition, e.g.
// "track=300,cut=250,regional=150".
func ParseScenarioSpec(s string) ([]ScenarioSpec, error) { return scenario.ParseSpec(s) }

// FormatScenarioSpec renders specs back into ParseScenarioSpec's format.
func FormatScenarioSpec(specs []ScenarioSpec) string { return scenario.FormatSpec(specs) }

// GenerateScenarios draws the ensemble cfg describes — a pure function of
// the seed and parameters.
func GenerateScenarios(cfg ScenarioConfig) ([]*Scenario, error) { return scenario.Generate(cfg) }

// SweepEnsemble evaluates every scenario against every world; reports are
// bit-identical at any worker count.
func SweepEnsemble(scenarios []*Scenario, worlds []EnsembleWorld, cfg EnsembleConfig) (*EnsembleReport, error) {
	return scenario.Sweep(scenarios, worlds, cfg)
}

// Experiments (paper reproduction harness).
type (
	// Lab is the shared experimental world regenerating the paper's tables
	// and figures.
	Lab = experiments.Lab
	// LabConfig scales the experiment world.
	LabConfig = experiments.Config
)

// NewLab generates the experiment world (zero config = paper scale).
func NewLab(cfg LabConfig) (*Lab, error) { return experiments.NewLab(cfg) }
