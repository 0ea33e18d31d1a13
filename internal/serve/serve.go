// Package serve turns the batch RiskRoute pipeline into a long-lived
// online service. A Server fits the hazard surfaces and population
// assignment once at startup, builds one routing engine per network, and
// publishes the whole read-only world as an immutable *snapshot* behind an
// atomic pointer. Request handlers load the pointer once and answer from
// that snapshot; they never block on writers and never observe a
// half-updated world.
//
// # Snapshot lifecycle and generations
//
// Every snapshot carries a monotonic generation number. Generation 1 is the
// startup world (historical risk only, no forecast layer). POST /v1/advisory
// parses an NHC bulletin with the existing forecast NLP parser, rebuilds
// only the forecast risk layer (the hazard model, census assignment, and
// per-PoP historical risks are reused), reprices each network's engine in
// turn on the swapping goroutine, and publishes generation g+1. Swaps are
// serialized by a mutex; readers are never blocked — an in-flight request
// finishes on the snapshot it loaded, and its response reports that
// snapshot's generation.
//
// # Admission control and the result cache
//
// The compute endpoints (/v1/route, /v1/ratio) pass through a
// bounded-concurrency semaphore: when MaxInFlight requests are already
// executing, a newcomer waits at most QueueTimeout and is then rejected
// with 429 and a Retry-After header, so overload sheds load instead of
// queueing unboundedly. A request that reaches engine work more than
// RequestTimeout after its arrival, queue wait included, gets 503. Route
// and ratio answers land, as finished response bodies, in a result cache
// indexed twice: by (generation, endpoint, raw query text), so a repeated
// text is one write of stored bytes before any parsing, and by
// (generation, network, parsed query), so texts that parse alike share
// one answer. Because the generation is part of both keys, a snapshot
// swap implicitly invalidates every cached result, and in-flight requests
// on the old snapshot cannot poison the new generation.
package serve

import (
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"riskroute/internal/core"
	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/hazard"
	"riskroute/internal/obs"
	"riskroute/internal/parallel"
	"riskroute/internal/population"
	"riskroute/internal/resilience"
	"riskroute/internal/risk"
	worldsnap "riskroute/internal/snapshot"
	"riskroute/internal/topology"
)

// Config tunes the serving daemon. The synthetic-world knobs default to the
// batch CLI's defaults, so a generation's route costs are byte-identical to
// `riskroute route` run with the same inputs. Requests that do not set
// lambda_h/lambda_f run at the paper's λ_h = 10⁵, λ_f = 10³
// (risk.PaperParams).
type Config struct {
	// Networks is the serving corpus; nil means the embedded 23 networks.
	Networks []*topology.Network
	// Blocks is the synthetic census size (default 20000, the CLI default).
	Blocks int
	// EventScale scales the disaster catalogs (default 0.2, the CLI default).
	EventScale float64
	// Seed is the synthetic-world seed (default 1, the CLI default).
	Seed uint64
	// Workers bounds the goroutines of warmup and engine sweeps
	// (0 = GOMAXPROCS). Snapshot rebuilds run on the calling goroutine.
	Workers int

	// WorldSnapshotPath, when set, boots the world from a baked snapshot
	// file (`riskroute bake`) instead of fitting: the hazard model, census
	// fractions, and historical PoP risks come from the file, and only the
	// engines are rebuilt — generation 1 is bit-identical to a fresh fit of
	// the same world. A snapshot that fails to load or verify (corruption,
	// version skew, topology or configuration drift) records a degraded-mode
	// event and falls back to the full fit; the outcome is reported by Boot.
	WorldSnapshotPath string
	// World short-circuits WorldSnapshotPath with an already-decoded
	// snapshot (in-process bakes and tests); drift verification still runs.
	World *worldsnap.World

	// MaxInFlight bounds concurrently executing compute requests
	// (default 64). QueueTimeout is how long an over-limit request may wait
	// for a slot before being rejected with 429 (default 100ms).
	// RequestTimeout is the longest a compute request may take from arrival,
	// queue wait included, to the start of engine work (default 15s).
	MaxInFlight    int
	QueueTimeout   time.Duration
	RequestTimeout time.Duration
	// CacheSize is the entry capacity of each of the result cache's two
	// indexes (default 4096; negative disables caching).
	CacheSize int

	// RequestIDSeed seeds the request-ID generator: non-zero pins the exact
	// ID sequence (deterministic for tests and replay), 0 randomizes it.
	RequestIDSeed uint64
	// SlowRequest is the tail-sampling threshold: requests at least this
	// slow land in the /debug/requests ring even when they succeed
	// (default 250ms). Errored requests are always sampled.
	SlowRequest time.Duration
	// SLO tunes the burn-rate engine behind /v1/slo; the zero value uses
	// the obs package defaults (100ms @ 99%, 99.9% availability, 5m/1h
	// windows), with SLO.Metrics defaulting to Config.Metrics.
	SLO obs.SLOConfig
	// DisableTracing removes the request-tracing middleware entirely — no
	// request IDs, access log, SLO accounting, or tail sampling. Benchmarks
	// use it to price the middleware; production keeps it on.
	DisableTracing bool

	// Observability (all optional, nil-safe).
	Metrics *obs.Registry
	Trace   *obs.Span
	Logger  *slog.Logger
	Health  *resilience.Health
}

func (c Config) withDefaults() Config {
	if c.Networks == nil {
		c.Networks = datasets.BuildNetworks()
	}
	if c.Blocks == 0 {
		c.Blocks = 20000
	}
	if c.EventScale == 0 {
		c.EventScale = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.SlowRequest <= 0 {
		c.SlowRequest = 250 * time.Millisecond
	}
	return c
}

// BootInfo reports which path built the serving world — the document behind
// the /v1/readyz "boot" object and `riskroute stats`, so a fleet operator
// can verify a node actually took the fast path instead of silently
// re-fitting for seconds.
type BootInfo struct {
	// Path is "snapshot" when the world came from a baked snapshot,
	// "fit" when it was fitted from scratch.
	Path string `json:"path"`
	// SnapshotDigest identifies the loaded snapshot (snapshot boots only).
	SnapshotDigest string `json:"snapshot_digest,omitempty"`
	SnapshotFile   string `json:"snapshot_file,omitempty"`
	// LoadSeconds is the snapshot read+verify+decode time; FitSeconds is
	// the full fit time (whichever path ran).
	LoadSeconds float64 `json:"load_seconds,omitempty"`
	FitSeconds  float64 `json:"fit_seconds,omitempty"`
	Sections    int     `json:"sections,omitempty"`
	// Fallback is set when a snapshot was requested but rejected and the
	// server fitted from scratch instead; FallbackReason says why.
	Fallback       bool   `json:"fallback,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
}

// netBase is the per-network state that survives snapshot swaps: topology,
// census fractions, and historical risk never change while the daemon runs.
type netBase struct {
	net       *topology.Network
	hist      []float64
	histLimit float64 // largest λ_h a request may ask (lambdaLimit of hist)
	fractions []float64
	pops      map[string]int // PoP name → index

	// The network's and PoPs' names quoted by encoding/json, once, for the
	// route and ratio body appenders (jsonbody.go).
	jsonName []byte
	jsonPoPs [][]byte // by PoP index
}

func newNetBase(net *topology.Network, hist, fractions []float64) *netBase {
	pops := make(map[string]int, len(net.PoPs))
	jsonPoPs := make([][]byte, len(net.PoPs))
	for i, p := range net.PoPs {
		if _, dup := pops[p.Name]; !dup { // PoPIndex answers the first match
			pops[p.Name] = i
		}
		jsonPoPs[i] = quoteJSON(p.Name)
	}
	return &netBase{net: net, hist: hist, histLimit: lambdaLimit(len(net.PoPs), hist),
		fractions: fractions, pops: pops, jsonName: quoteJSON(net.Name), jsonPoPs: jsonPoPs}
}

// popIndex returns the index of the PoP with the given name, or -1 — the
// map form of topology.Network.PoPIndex.
func (b *netBase) popIndex(name string) int {
	if i, ok := b.pops[name]; ok {
		return i
	}
	return -1
}

// netState is one network's routable state inside a snapshot. Engines are
// immutable once built, so request goroutines share it without locks.
type netState struct {
	*netBase
	forecast []float64 // nil when the snapshot has no active advisory
	engine   *core.Engine
	limit    risk.Params // largest λ_h, λ_f a request may ask (lambdaLimit)
}

// lambdaLimit bounds the λ of one risk layer so that every cost served over
// an n-PoP network stays finite. A route sums at most n−1 edge weights and a
// ratio sums fewer than n² routes; each edge charges its miles plus α·ρ
// with α ≤ 1, and ρ is at most λ_h·max(hist) + λ_f·max(forecast). Capping
// each λ term at MaxFloat64/(4n³) therefore leaves every sum below
// MaxFloat64. A layer that is all zeros admits any finite λ.
func lambdaLimit(n int, layer []float64) float64 {
	peak := 0.0
	for _, v := range layer {
		peak = max(peak, v)
	}
	if peak == 0 {
		return math.MaxFloat64
	}
	return math.MaxFloat64 / (4 * float64(n) * float64(n) * float64(n)) / peak
}

// snapshot is one immutable published world. Readers load it once per
// request and keep every answer internally consistent with it.
type snapshot struct {
	gen       uint64
	advisory  *forecast.Advisory // nil for the startup generation
	jsonStorm []byte             // advisory.Storm quoted by encoding/json; nil when absent or empty
	states    []*netState        // aligned with Server.bases
}

// serveObs caches the server's metric handles (nil registry = no-ops).
type serveObs struct {
	rejected    *obs.Counter   // serve.rejected_total (429s)
	errors      *obs.Counter   // serve.errors_total (4xx/5xx except 429)
	inflight    *obs.Gauge     // serve.inflight
	cacheHits   *obs.Counter   // serve.cache.hits_total
	cacheMisses *obs.Counter   // serve.cache.misses_total
	swaps       *obs.Counter   // serve.swaps_total
	swapSeconds *obs.Histogram // serve.swap_seconds
	generation  *obs.Gauge     // serve.generation
	reqSeconds  *obs.Histogram // serve.request_seconds.all (traced middleware)

	explains     *obs.Counter   // serve.explain.requests_total
	explainDepth *obs.Histogram // serve.explain.depth (edges per explanation)
	probes       *obs.Counter   // serve.hazard.probes_total
}

func newServeObs(r *obs.Registry) serveObs {
	if r == nil {
		return serveObs{}
	}
	return serveObs{
		rejected:    r.Counter("serve.rejected_total"),
		errors:      r.Counter("serve.errors_total"),
		inflight:    r.Gauge("serve.inflight"),
		cacheHits:   r.Counter("serve.cache.hits_total"),
		cacheMisses: r.Counter("serve.cache.misses_total"),
		swaps:       r.Counter("serve.swaps_total"),
		swapSeconds: r.Histogram("serve.swap_seconds", obs.LatencyBuckets()),
		generation:  r.Gauge("serve.generation"),
		reqSeconds:  r.Histogram("serve.request_seconds.all", obs.LatencyBuckets()),

		explains:     r.Counter("serve.explain.requests_total"),
		explainDepth: r.Histogram("serve.explain.depth", []float64{1, 2, 4, 8, 16, 32, 64}),
		probes:       r.Counter("serve.hazard.probes_total"),
	}
}

// Retained-record caps of the /debug/requests sample and the
// /v1/generations timeline.
const (
	requestLogSize = 128
	timelineSize   = 256
)

// Server is the online RiskRoute daemon: a warm hazard/population world,
// the current engine snapshot, and the HTTP surface over both.
type Server struct {
	cfg   Config
	tel   serveObs
	lg    *slog.Logger
	model *hazard.Model
	rm    forecast.RiskModel
	bases []*netBase
	nets  map[string]int // network name → position in bases and in every snapshot's states
	boot  BootInfo

	snap   atomic.Pointer[snapshot]
	swapMu sync.Mutex // serializes advisory ingestion; readers never take it
	prev   *snapshot  // snapshot before the last swap (under swapMu); rollback target

	sem      chan struct{}
	inflight atomic.Int64 // admitted requests currently executing
	cache    resultCache
	ready    atomic.Bool
	draining atomic.Bool

	// ingestStatus, when attached, answers /v1/ingest with the advisory
	// poller's lifecycle document.
	ingestStatus atomic.Pointer[func() any]

	// Request tracing and the serving timeline (nil-safe pieces).
	ids      *obs.RequestIDs
	slo      *obs.SLO
	reqs     *obs.ReqRing
	timeline *obs.Ring[SwapEvent]

	mux     *http.ServeMux
	handler http.Handler // mux wrapped in tracing middleware (or bare mux)
}

// New builds the serving world and publishes generation 1. The default path
// fits the hazard surfaces, generates the census, and assigns population to
// every network (fanned over internal/parallel); with WorldSnapshotPath (or
// World) set, all of that state comes from a baked snapshot and boot cost is
// dominated by the engine builds — a rejected snapshot degrades to the
// full fit rather than failing the boot. The warmup is traced under
// cfg.Trace as "serve-warmup" with one child span per stage.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Networks) == 0 {
		return nil, fmt.Errorf("serve: no networks to serve")
	}
	// The bases below are built in cfg.Networks' order; indexing the names
	// first fails a repeated one before the fit.
	nets, err := networkIndex(cfg.Networks)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		tel:  newServeObs(cfg.Metrics),
		lg:   obs.LoggerOrNop(cfg.Logger),
		rm:   forecast.DefaultRiskModel(),
		nets: nets,
	}

	warm := cfg.Trace.Child("serve-warmup")
	defer warm.End()

	s.boot = BootInfo{Path: "fit"}
	world := cfg.World
	if world == nil && cfg.WorldSnapshotPath != "" {
		loadStart := time.Now()
		w, stats, err := worldsnap.Load(cfg.WorldSnapshotPath, worldsnap.LoadOptions{
			Workers: cfg.Workers, Metrics: cfg.Metrics, Trace: warm,
			Logger: cfg.Logger, Health: cfg.Health,
		})
		if err != nil {
			s.boot.Fallback = true
			s.boot.FallbackReason = err.Error()
			cfg.Metrics.Counter("snapshot.fallbacks").Inc()
			s.lg.Warn("world snapshot rejected; falling back to full fit",
				"path", cfg.WorldSnapshotPath, "err", err)
		} else {
			world = w
			s.boot.SnapshotFile = cfg.WorldSnapshotPath
			s.boot.LoadSeconds = time.Since(loadStart).Seconds()
			s.boot.Sections = stats.Sections
		}
	}
	if world != nil {
		model, bases, err := worldBases(cfg, world)
		if err != nil {
			// Drift: the snapshot is internally sound but describes a
			// different world than this configuration serves, or holds risk
			// vectors no engine accepts. Fail closed into the fit path
			// rather than serving someone else's risks.
			s.boot = BootInfo{Path: "fit", Fallback: true, FallbackReason: err.Error()}
			world = nil
			cfg.Metrics.Counter("snapshot.fallbacks").Inc()
			cfg.Health.Degrade("serve", err, "world snapshot %s does not match the serving configuration", cfg.WorldSnapshotPath)
			s.lg.Warn("world snapshot drift; falling back to full fit",
				"path", cfg.WorldSnapshotPath, "err", err)
		} else {
			s.model = model
			s.bases = bases
			s.boot.Path = "snapshot"
			s.boot.SnapshotDigest = world.Digest
		}
	}
	if world == nil {
		fitStart := time.Now()
		fw, err := fitWorld(cfg, warm)
		if err != nil {
			return nil, err
		}
		s.model = fw.model
		s.bases = fw.bases
		s.boot.FitSeconds = time.Since(fitStart).Seconds()
	}

	build := warm.Child("engine-build")
	buildStart := time.Now()
	snap, err := s.buildSnapshot(1, nil, build)
	build.End()
	if err != nil {
		return nil, err
	}
	s.cache = newResultCache(cfg.CacheSize)
	s.timeline = obs.NewRing[SwapEvent](timelineSize)
	s.publish(snap, nil, SwapEvent{RebuildSeconds: time.Since(buildStart).Seconds()}, buildStart)

	s.sem = make(chan struct{}, cfg.MaxInFlight)
	s.ids = obs.NewRequestIDs(cfg.RequestIDSeed)
	sloCfg := cfg.SLO
	if sloCfg.Metrics == nil {
		sloCfg.Metrics = cfg.Metrics
	}
	if sloCfg.LatencyHistogram == nil && s.tel.reqSeconds != nil {
		// Share the all-requests latency histogram so the traced hot path
		// observes each request's duration exactly once.
		sloCfg.LatencyHistogram = s.tel.reqSeconds
	}
	s.slo = obs.NewSLO(sloCfg)
	s.reqs = obs.NewReqRing(requestLogSize)
	s.mux = s.routes()
	s.handler = http.Handler(s.mux)
	if !cfg.DisableTracing {
		s.handler = s.traced(s.mux)
	}
	s.ready.Store(true)
	cfg.Health.Record("serve", "warmup complete (%s boot): %d networks at generation 1", s.boot.Path, len(s.bases))
	s.lg.Info("serve warmup complete", "boot_path", s.boot.Path,
		"networks", len(s.bases), "blocks", cfg.Blocks,
		"event_scale", cfg.EventScale, "seconds", warm.Duration().Seconds())
	return s, nil
}

// networkIndex maps each network name to its position in nets. Requests
// name networks, so a name listed twice is an error: no request could
// reach the second one, and no daemon boots such a corpus.
func networkIndex(nets []*topology.Network) (map[string]int, error) {
	index := make(map[string]int, len(nets))
	for i, net := range nets {
		if _, dup := index[net.Name]; dup {
			return nil, fmt.Errorf("serve: network %q is listed twice", net.Name)
		}
		index[net.Name] = i
	}
	return index, nil
}

// fittedWorld is the full-fit pipeline's output: everything a snapshot
// persists and generation 1 serves.
type fittedWorld struct {
	model  *hazard.Model
	census *population.Census
	bases  []*netBase
	asgs   []*population.Assignment
}

// fitWorld runs the offline pipeline serve's fit-path boot and `riskroute
// bake` share: hazard fit, census generation, and per-network assignment +
// historical PoP risks. Bake and fresh boot producing generation-1 state
// through the same function is what makes snapshot boots bit-identical by
// construction.
func fitWorld(cfg Config, warm *obs.Span) (*fittedWorld, error) {
	if err := datasets.CheckCensusBlocks(cfg.Blocks); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	fit := warm.Child("hazard-fit")
	model, err := hazard.Fit(hazard.SyntheticSources(cfg.EventScale, cfg.Seed),
		hazard.FitConfig{Workers: cfg.Workers, Metrics: cfg.Metrics,
			Trace: fit, Health: cfg.Health, Logger: cfg.Logger})
	fit.End()
	if err != nil {
		return nil, fmt.Errorf("serve: hazard fit: %w", err)
	}
	census := datasets.GenerateCensus(datasets.CensusConfig{Blocks: cfg.Blocks, Seed: cfg.Seed})

	// Per-network census assignment and historical risks, one slot per
	// network. Each slot's inner stages run sequentially (workers=1): the
	// fan-out across networks is the parallelism, and assignments are
	// bit-identical at any worker split anyway.
	assign := warm.Child("population-assign")
	type baseOrErr struct {
		base *netBase
		asg  *population.Assignment
		err  error
	}
	slots := parallel.Map(len(cfg.Networks), cfg.Workers, func(i int) baseOrErr {
		net := cfg.Networks[i]
		asg, err := population.AssignWorkers(census, net, 1)
		if err != nil {
			return baseOrErr{err: fmt.Errorf("serve: assigning %q: %w", net.Name, err)}
		}
		return baseOrErr{base: newNetBase(net, model.PoPRisks(net), asg.Fractions), asg: asg}
	})
	assign.End()
	fw := &fittedWorld{
		model:  model,
		census: census,
		bases:  make([]*netBase, len(slots)),
		asgs:   make([]*population.Assignment, len(slots)),
	}
	for i, sl := range slots {
		if sl.err != nil {
			return nil, sl.err
		}
		fw.bases[i] = sl.base
		fw.asgs[i] = sl.asg
	}
	return fw, nil
}

// worldBases verifies a baked world against the serving configuration and,
// on success, restores the hazard model and per-network bases from it —
// the snapshot boot path's counterpart to fitWorld. Every mismatch is
// ErrDrift: a snapshot of a different world must never serve.
func worldBases(cfg Config, world *worldsnap.World) (*hazard.Model, []*netBase, error) {
	if err := world.VerifyConfig(cfg.Blocks, cfg.EventScale, cfg.Seed); err != nil {
		return nil, nil, err
	}
	model, err := RestoreModel(world)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", worldsnap.ErrDrift, err)
	}
	bases := make([]*netBase, len(cfg.Networks))
	for i, net := range cfg.Networks {
		ns, err := world.VerifyNetwork(net)
		if err != nil {
			return nil, nil, err
		}
		bases[i] = newNetBase(net, ns.Hist, ns.Fractions)
	}
	return model, bases, nil
}

// RestoreModel reconstructs the fitted hazard model a baked world persists,
// bit-identical to the model it was baked from.
func RestoreModel(world *worldsnap.World) (*hazard.Model, error) {
	sources := make([]hazard.FittedSource, len(world.Catalogs))
	for i, c := range world.Catalogs {
		sources[i] = hazard.FittedSource{
			Name:      c.Name,
			Bandwidth: c.Bandwidth,
			Events:    c.Events,
			Field:     c.Field,
		}
	}
	return hazard.Restore(sources, world.Lost, world.Renorm)
}

// BakeWorld runs the full fit pipeline for cfg and captures its output as a
// persistable world snapshot — the engine behind `riskroute bake`. Because
// it calls the same fitWorld the serving boot calls, a daemon booting from
// the baked file serves generation 1 bit-identical to one that fitted from
// scratch with the same configuration.
func BakeWorld(cfg Config) (*worldsnap.World, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Networks) == 0 {
		return nil, fmt.Errorf("serve: no networks to bake")
	}
	if _, err := networkIndex(cfg.Networks); err != nil {
		return nil, err
	}
	span := cfg.Trace.Child("world-bake")
	defer span.End()
	fw, err := fitWorld(cfg, span)
	if err != nil {
		return nil, err
	}

	byName := make(map[string]datasets.EventType, len(datasets.EventTypes))
	for _, et := range datasets.EventTypes {
		byName[et.String()] = et
	}
	catalogs := make([]worldsnap.Catalog, len(fw.model.Sources))
	for i, src := range fw.model.Sources {
		c := worldsnap.Catalog{
			Name:      src.Name,
			Bandwidth: src.Bandwidth,
			Events:    src.Events,
			Scale:     1,
			Field:     src.Field,
		}
		if et, ok := byName[src.Name]; ok {
			for s := range c.Seasonal {
				c.Seasonal[s] = datasets.SeasonalShare(et, datasets.Season(s))
			}
		}
		catalogs[i] = c
	}
	nets := make([]worldsnap.NetworkState, len(fw.bases))
	for i, base := range fw.bases {
		nets[i] = worldsnap.NetworkState{
			Name:      base.net.Name,
			TopoHash:  worldsnap.HashNetwork(base.net),
			PoPs:      len(base.net.PoPs),
			Hist:      base.hist,
			Served:    fw.asgs[i].Served,
			Fractions: base.fractions,
		}
	}
	world := &worldsnap.World{
		Blocks:     cfg.Blocks,
		EventScale: cfg.EventScale,
		Seed:       cfg.Seed,
		Renorm:     fw.model.Renorm(),
		Lost:       fw.model.Lost,
		Catalogs:   catalogs,
		Census:     fw.census.Blocks,
		Networks:   nets,
	}
	if err := world.Validate(); err != nil {
		return nil, err
	}
	span.SetAttr("catalogs", len(catalogs))
	span.SetAttr("networks", len(nets))
	return world, nil
}

// Boot reports which path built the serving world (and how long it took).
func (s *Server) Boot() BootInfo { return s.boot }

// buildSnapshot constructs the immutable world for one generation: the
// forecast layer for adv (nil for none) and one engine per network, built
// in turn on the calling goroutine. Each served engine is a reprice, which
// shares its source's adjacency and α = 0 trees and refreshes only the
// O(N+E) risk side, a few microseconds per network: handing that to other
// goroutines costs more CPU than it saves wall time (DESIGN §9). A swap
// reprices the serving snapshot's engine and records nothing. Booting
// builds each engine from scratch, with an engine-build span under span and
// a health event per network, and serves a reprice of it without either,
// so generation 1's ratio misses open no spans under boot's.
func (s *Server) buildSnapshot(gen uint64, adv *forecast.Advisory, span *obs.Span) (*snapshot, error) {
	cur := s.snap.Load() // nil while booting; states align with s.bases
	snap := &snapshot{
		gen:      gen,
		advisory: adv,
		states:   make([]*netState, len(s.bases)),
	}
	if adv != nil && adv.Storm != "" { // routeResponse omits an empty storm
		snap.jsonStorm = quoteJSON(adv.Storm)
	}
	for i, base := range s.bases {
		var fc []float64
		if adv != nil {
			fc = s.rm.PoPRisks(adv, base.net)
		}
		ctx := &risk.Context{
			Net:       base.net,
			Hist:      base.hist,
			Forecast:  fc,
			Fractions: base.fractions,
			Params:    risk.PaperParams(),
		}
		// Engine sweeps (Evaluate) run single-request parallel already; the
		// snapshot engines take the configured worker bound. Build timings
		// flow to the registry either way. A reprice shares boot's topology,
		// components and unreachable count, so its span and health event
		// would repeat boot's: a swap adds no span or health event per network.
		opts := core.Options{Workers: s.cfg.Workers, Metrics: s.cfg.Metrics}
		var from, eng *core.Engine
		var err error
		if cur != nil {
			from = cur.states[i].engine
		} else {
			boot := opts
			boot.Health, boot.Trace = s.cfg.Health, span
			from, err = core.New(ctx, boot)
		}
		if err == nil {
			eng, err = from.Reprice(ctx, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: engine for %q: %w", base.net.Name, err)
		}
		snap.states[i] = &netState{netBase: base, forecast: fc, engine: eng,
			limit: risk.Params{LambdaH: base.histLimit, LambdaF: lambdaLimit(len(base.net.PoPs), fc)}}
	}
	return snap, nil
}

// ApplyAdvisory validates NHC bulletin text with the advisory feed's gate
// (forecast.ValidateAdvisory: a strict parse plus plausibility bounds),
// rebuilds the forecast risk layer, and publishes the next generation. It
// returns the parsed advisory and the generation now serving. A rejected
// bulletin leaves the current snapshot untouched and is logged, not
// recorded in Health, so rejections retain nothing. Concurrent calls
// serialize; readers are never blocked.
func (s *Server) ApplyAdvisory(text string) (*forecast.Advisory, uint64, error) {
	parseStart := time.Now()
	adv, err := forecast.ValidateAdvisory(text)
	parseDur := time.Since(parseStart)
	if err != nil {
		s.lg.Warn("advisory rejected", "err", err)
		return nil, s.Generation(), err
	}
	gen, err := s.ApplyParsed(adv, parseDur)
	return adv, gen, err
}

// ApplyParsed swaps an already-parsed advisory into the serving world and
// returns the generation now serving — the single swap path behind
// ApplyAdvisory and the ingestion subsystem's swap hook (ingest.Swapper).
// parseDur is how long the caller spent parsing (0 when it did not time
// it); it flows into the generation's timeline event so /v1/generations
// reports the full parse/rebuild/swap breakdown. The rebuild runs inside a
// panic-recovery guard (a panicking engine build becomes a typed
// DegradedError, never a dead daemon), and the new snapshot is verified
// before the pointer moves; on any failure the current snapshot keeps
// serving. Concurrent calls serialize; readers are never blocked.
func (s *Server) ApplyParsed(adv *forecast.Advisory, parseDur time.Duration) (uint64, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.snap.Load()
	gen := cur.gen + 1
	start := time.Now()
	next, err := s.buildSnapshotRecover(gen, adv)
	if err == nil {
		err = s.verifySnapshot(next, cur)
	}
	if err != nil {
		s.cfg.Health.Degrade("serve", err, "swap to generation %d failed", gen)
		return cur.gen, err
	}
	ev := s.publish(next, cur, SwapEvent{ParseSeconds: parseDur.Seconds(),
		RebuildSeconds: time.Since(start).Seconds()}, start)
	s.tel.swaps.Inc()
	s.tel.swapSeconds.Observe(ev.SwapSeconds)
	s.lg.Info("advisory swap", "generation", gen, "storm", adv.Storm,
		"advisory", adv.Number, "seconds", ev.SwapSeconds)
	return gen, nil
}

// publish serves next, with prev as the rollback target (nil: none), and
// records the change, the one step every generation goes through: the
// cache is emptied, the generation gauge set, and one timeline event
// added — ev completed with next's generation and bulletin, the entries
// dropped and the seconds since start. It returns the completed event.
// Callers hold swapMu, or are booting.
func (s *Server) publish(next, prev *snapshot, ev SwapEvent, start time.Time) SwapEvent {
	s.snap.Store(next)
	s.prev = prev
	// Old-generation entries can never hit again (the generation is part of
	// every cache key); reset eagerly so their memory is reclaimed now
	// rather than by LRU pressure. The event counts the distinct results
	// dropped: the keyed entries.
	ev.CacheInvalidated = s.cache.keyed.Len()
	s.cache.Reset()
	s.tel.generation.Set(float64(next.gen))
	ev.Generation = next.gen
	if next.advisory != nil {
		ev.Storm, ev.Advisory = next.advisory.Storm, next.advisory.Number
	}
	ev.Time = time.Now()
	ev.SwapSeconds = ev.Time.Sub(start).Seconds()
	s.timeline.Add(ev)
	return ev
}

// buildSnapshotRecover is buildSnapshot behind a panic guard: a panic in
// the forecast-layer rebuild or an engine constructor is converted into a
// typed *resilience.DegradedError instead of unwinding through the swap
// lock and killing the daemon.
func (s *Server) buildSnapshotRecover(gen uint64, adv *forecast.Advisory) (snap *snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			snap = nil
			err = &resilience.DegradedError{Stage: "serve",
				Err: fmt.Errorf("snapshot rebuild for generation %d panicked: %v", gen, r)}
		}
	}()
	return s.buildSnapshot(gen, adv, nil)
}

// verifySnapshot checks the structural invariants a publishable snapshot
// must hold — every network present with an engine, forecast
// vectors sized to their PoP sets, and a generation exactly one past the
// snapshot being replaced — so a torn build can never reach the atomic
// pointer.
func (s *Server) verifySnapshot(next, cur *snapshot) error {
	if next.gen != cur.gen+1 {
		return fmt.Errorf("serve: torn snapshot: generation %d does not follow %d", next.gen, cur.gen)
	}
	if len(next.states) != len(s.bases) {
		return fmt.Errorf("serve: torn snapshot: %d/%d networks present", len(next.states), len(s.bases))
	}
	for _, st := range next.states {
		if st == nil || st.engine == nil {
			return fmt.Errorf("serve: torn snapshot: network state missing an engine")
		}
		if next.advisory != nil && len(st.forecast) != len(st.net.PoPs) {
			return fmt.Errorf("serve: torn snapshot: %s forecast vector has %d entries for %d PoPs",
				st.net.Name, len(st.forecast), len(st.net.PoPs))
		}
	}
	return nil
}

// RevertAdvisory rolls the serving world back from a suspect generation:
// if fromGen is still current and a pre-swap snapshot is retained, that
// last good world is republished under a fresh generation (a revert, not a
// pointer rewind, so generations stay monotonic and cache keys stay
// unambiguous). The ingestion poller calls this when a published world
// fails post-swap verification.
func (s *Server) RevertAdvisory(fromGen uint64) (uint64, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.snap.Load()
	if cur.gen != fromGen {
		return cur.gen, fmt.Errorf("serve: cannot revert generation %d: now serving %d", fromGen, cur.gen)
	}
	if s.prev == nil {
		return cur.gen, fmt.Errorf("serve: cannot revert generation %d: no prior snapshot retained", fromGen)
	}
	restored := *s.prev
	restored.gen = cur.gen + 1
	// No rollback target: a revert cannot itself be reverted.
	ev := s.publish(&restored, nil, SwapEvent{Rollback: true}, time.Now())
	s.cfg.Health.Record("serve", "generation %d: reverted generation %d to the prior world", ev.Generation, fromGen)
	s.lg.Warn("advisory swap reverted", "bad_generation", fromGen, "generation", ev.Generation)
	return ev.Generation, nil
}

// AttachIngest registers the continuous-ingestion status source; once
// attached, GET /v1/ingest serves its document.
func (s *Server) AttachIngest(status func() any) {
	s.ingestStatus.Store(&status)
}

// InFlight returns how many admitted compute requests are executing right
// now — the count a bounded drain reports as abandoned when its timeout
// expires.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Generation returns the currently served snapshot's generation.
func (s *Server) Generation() uint64 { return s.snap.Load().gen }

// Ready reports whether the server is warmed up and not draining.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Drain marks the server as shutting down: /v1/readyz starts answering 503
// so load balancers stop sending new work, while in-flight requests finish
// normally (http.Server.Shutdown handles the connection-level drain).
func (s *Server) Drain() {
	if s.draining.CompareAndSwap(false, true) {
		s.lg.Info("serve draining")
	}
}

// Handler returns the daemon's HTTP surface: the route mux wrapped in the
// request-tracing middleware (unless Config.DisableTracing).
func (s *Server) Handler() http.Handler { return s.handler }

// Timeline returns the retained swap-timeline events, oldest first — the
// document behind /v1/generations.
func (s *Server) Timeline() []SwapEvent { return s.timeline.Records() }

// SLOSnapshot reports the burn-rate engine's current state — the document
// behind /v1/slo.
func (s *Server) SLOSnapshot() obs.SLOSnapshot { return s.slo.Snapshot() }

// CacheStats returns the result cache's lifetime hit/miss counters. A hit
// in either index is one hit; a miss is a keyed miss, since a raw miss only
// means the query text is new.
func (s *Server) CacheStats() (hits, misses uint64) {
	rawHits, _ := s.cache.raw.Stats()
	hits, misses = s.cache.keyed.Stats()
	return rawHits + hits, misses
}

// engineAt returns the engine answering queries for st at the given
// parameters: the snapshot's shared engine at the paper's parameters,
// otherwise a request-scoped reprice of it over the same immutable risk
// layers (identical numerics, an O(N+E) refresh, no shared mutation).
func (s *Server) engineAt(st *netState, p risk.Params) (*core.Engine, error) {
	if p == risk.PaperParams() {
		return st.engine, nil
	}
	ctx := &risk.Context{
		Net:       st.net,
		Hist:      st.hist,
		Forecast:  st.forecast,
		Fractions: st.fractions,
		Params:    p,
	}
	return st.engine.Reprice(ctx, core.Options{Workers: s.cfg.Workers, Metrics: s.cfg.Metrics})
}
