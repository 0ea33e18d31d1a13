// Package core implements the RiskRoute optimization framework (Section 6
// of the paper): minimum bit-risk-mile routing between arbitrary PoPs
// (Equation 3), the aggregated risk-reduction and distance-increase ratios
// against shortest-path routing (Equations 5 and 6), and the robustness
// analysis that finds the additional links best reducing a network's total
// bit-risk miles (Equation 4, single and greedy-k).
//
// # Impact-coupled weights and α quantization
//
// The metric's impact factor α_ij = c_i + c_j depends on the endpoint pair,
// so edge weights are pair-dependent: a fresh shortest-path problem per
// pair. The engine exploits that α enters as a single scalar multiplier:
// under the symmetric formulation every edge weight is affine in α,
// w_e = m_e + α·r_e, so one immutable CSR adjacency holding each link's
// miles m_e and risk r_e (graph.Affine) serves a search at any α, with the
// weight computed inline. There are no per-α graphs. Point queries
// (RiskRoutePair) search at the pair's exact α, goal-directed (see below).
// The all-pairs evaluations quantize α into a small number of buckets: each
// source runs one sweep per bucket its destinations fall in, and each
// pair's cost is evaluated at its exact α. Exact per-pair search is
// available for verification (EvaluateExact) and agrees with the quantized
// path within the bucket width; the property is pinned by tests.
//
// # Goal-directed point queries
//
// A point query runs one search toward its target (A*): it pops each PoP
// by its label plus a lower bound on its remaining cost (pairBound), built
// from two rows kept per target j: d0[v], the α = 0 (miles) distance from
// v to j, and ri[v], the least sum of historical risk o_h over the PoPs
// strictly between v and j. The bound is
//
//	d0[v] + α·(λ_h·ri[v] + (ρ_v + ρ_j)/2)
//
// less a relative 1e-9, 0 at j and +Inf where j is unreachable. Each hop's
// risk r_e is at least half its endpoints' ρ sum, so a path's risk is at
// least (ρ_v + ρ_j)/2 plus the ρ of its interior PoPs, and each ρ =
// λ_h·o_h + λ_f·o_f is at least λ_h·o_h; the miles and the interior o_h
// are each at least their least value over all paths. So the bound never
// exceeds a path's cost, and since d0 and ri obey the triangle inequality
// across every link it is consistent too. The search settles far fewer
// PoPs: on perfbench's world Level3's mean at the paper's λ is 16.6 of 233,
// against 66.8 for the chord bound it replaced and 52.8 for d0 alone; the
// interior-risk row is what steers a risk-averse route. Its answer is the
// plain early-exit search's bit for bit: it keeps popping until every
// entry whose priority does not exceed the target's label (widened by a
// relative 1e-9) is settled, and a relaxation that ties a label sends the
// pair back to the plain search, counted in core.route.fallbacks_total,
// because only the plain search's settle order says which of two equal
// arcs it keeps.
//
// A target's rows are filled on the lineage's first query toward it, by
// two full sweeps of the lineage's unmasked adjacency (an α = 0 Sweep, and
// a SweepEntering that charges each PoP's o_h), and kept as float32s
// rounded toward −∞: 8 bytes per PoP per target, about 0.55 MiB for every
// target of all 23 built-in networks. Nothing is computed before a query,
// so building, repricing or swapping an engine fills no row. Every engine
// Reprice derives over the lineage's own Hist slice shares the rows (d0
// reads only topology and miles, ri only o_h); a reprice over another
// Hist starts an empty store. A WithoutLinks view keeps them, since a
// failed link only lengthens paths. New and WithLink start their own.
//
// The α = 0 geographic path behind ShortestPair (the baseline of Equations
// 5 and 6) depends only on topology and link miles. So instead of
// searching per pair it walks a per-source α = 0 tree: the first query
// from a source runs one full sweep and keeps its Via slice (4·N bytes),
// and later queries walk it. Every source of all 23 built-in
// networks comes to about 0.3 MiB.
//
// An engine's answers never change once built, so its query methods are
// safe for concurrent callers. Reprice derives an engine for a new risk
// context over the same network: it shares the adjacency's topology, the
// link miles and the α = 0 trees, and recomputes only the O(N+E) risk
// side; a context over the lineage's own fractions and no Impact override
// also keeps its α range and buckets. New and WithLink start a store of
// their own. WithoutLinks derives one whose searches run on a masked view
// of the adjacency without failed links; it keeps no trees and routes each
// shortest path with the guided search at α = 0.
package core

import (
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"riskroute/internal/graph"
	"riskroute/internal/obs"
	"riskroute/internal/parallel"
	"riskroute/internal/resilience"
	"riskroute/internal/risk"
)

// Options tune the engine.
type Options struct {
	// AlphaBuckets is the number of quantization levels for the impact
	// factor α in the all-pairs evaluations (default 16): each source runs
	// one Dijkstra sweep per bucket its destinations fall in, and
	// robustness scoring builds one all-pairs table per bucket in use. More
	// buckets cost more sweeps but track per-pair optima more closely.
	AlphaBuckets int
	// Workers bounds the goroutines used by the all-pairs evaluations
	// (Evaluate, TotalBitRisk and friends). Zero means GOMAXPROCS; 1 forces
	// sequential execution. Results are identical at any worker count: each
	// source's partial sums are reduced in source order.
	Workers int
	// Health receives build checkpoints (component count, unreachable
	// pairs on fragmented topologies).
	Health *resilience.Health
	// Metrics, when non-nil, receives engine telemetry under core.engine.*
	// and core.sweep.* (build timings, per-source sweep durations,
	// pair counts, worker gauge). Handles are resolved once at build; the
	// sweep inner loops stay untouched, so disabled telemetry costs nothing
	// and enabled telemetry stays within the ≤2% Evaluate budget.
	Metrics *obs.Registry
	// Trace, when non-nil, is the parent span under which the engine opens
	// "engine-build" and per-evaluation "sweep" children.
	Trace *obs.Span
	// Logger, when non-nil, receives one structured record per engine build
	// and per all-pairs sweep. Nil is fine; the engine logs through
	// LoggerOrNop, and nothing inside the sweep inner loops logs.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.AlphaBuckets == 0 {
		o.AlphaBuckets = 16
	}
	return o
}

// engineObs caches the engine's metric handles, resolved once at build so
// evaluations never take the registry lock. The zero value (nil handles, the
// telemetry-disabled state) no-ops everywhere.
type engineObs struct {
	buildSeconds  *obs.Histogram // core.engine.build_seconds
	sourceSeconds *obs.Histogram // core.sweep.source_seconds (one sweep per source)
	pairs         *obs.Counter   // core.sweep.pairs_total
	evaluations   *obs.Counter   // core.engine.evaluations_total
	workers       *obs.Gauge     // core.sweep.workers
	unreachable   *obs.Gauge     // core.engine.unreachable_pairs
	alphaBuckets  *obs.Gauge     // core.engine.alpha_buckets
	fallbacks     *obs.Counter   // core.route.fallbacks_total (guided pair searches rerun unguided)
}

func newEngineObs(r *obs.Registry) engineObs {
	if r == nil {
		return engineObs{}
	}
	return engineObs{
		buildSeconds:  r.Histogram("core.engine.build_seconds", obs.LatencyBuckets()),
		sourceSeconds: r.Histogram("core.sweep.source_seconds", obs.LatencyBuckets()),
		pairs:         r.Counter("core.sweep.pairs_total"),
		evaluations:   r.Counter("core.engine.evaluations_total"),
		workers:       r.Gauge("core.sweep.workers"),
		unreachable:   r.Gauge("core.engine.unreachable_pairs"),
		alphaBuckets:  r.Gauge("core.engine.alpha_buckets"),
		fallbacks:     r.Counter("core.route.fallbacks_total"),
	}
}

// Engine answers RiskRoute queries for one risk context. Its answers never
// change once built (only its lineage's tree and bound-row stores fill),
// so its query methods are safe for concurrent callers.
type Engine struct {
	// Ctx is the context the engine was built for. The engine snapshots
	// the context's risk vectors (ρ per PoP, span and r_e per link) at
	// build time, so mutating Ctx — or the network and slices it points
	// to — afterwards is unsupported: build a new engine or Reprice.
	Ctx  *risk.Context
	opts Options
	tel  engineObs
	lg   *slog.Logger // never nil (LoggerOrNop at build)

	// Topology-invariant state, shared by every engine Reprice derives.
	miles       []float64      // line-of-sight miles m_e, index-aligned with Net.Links
	components  int            // connected components of the topology (1 when whole)
	unreachable int            // unordered PoP pairs split across components
	trees       *shortestTrees // α = 0 trees per source; nil on a WithoutLinks view
	rows        *boundRows     // per-target bound rows; shared while Hist is the lineage's

	// Risk state, recomputed per context.
	adj  *graph.Affine // Net.Links as CSR: base m_e, slope r_e
	rho  []float64     // ρ(v) per PoP, never negative (risk.Context.Validate)
	span []float64     // λ_h-scaled span risk per link

	alphaLo, alphaHi float64
	logBuckets       bool      // log-spaced quantization for skewed α
	buckets          []float64 // representative α per bucket
}

// New builds an engine after validating the context: the adjacency and link
// miles of its network, and the risk side of the context.
func New(ctx *risk.Context, opts Options) (*Engine, error) {
	return build(nil, ctx, opts)
}

// Reprice builds an engine for ctx that shares e's topology-invariant
// state — the adjacency's structure, the link miles, the α = 0 trees and
// the component census — and recomputes only the risk side, in O(N+E).
// When neither context has an Impact override, ctx carries e's own
// Fractions slice and opts the same AlphaBuckets, as every advisory swap
// and custom-λ query does, the α range and buckets are e's too; when ctx
// carries e's own Hist slice, as those do, so are the per-target bound
// rows. ctx.Net must be e's own network (the same *topology.Network,
// unmodified). The result is identical to New(ctx, opts).
func (e *Engine) Reprice(ctx *risk.Context, opts Options) (*Engine, error) {
	if ctx.Net != e.Ctx.Net {
		return nil, fmt.Errorf("core: Reprice needs the engine's own network %q", e.Ctx.Net.Name)
	}
	return build(e, ctx, opts)
}

// build is New (shared == nil) and Reprice (shared != nil).
func build(shared *Engine, ctx *risk.Context, opts Options) (*Engine, error) {
	start := time.Now() // the span is nil when untraced; time the build apart
	span := opts.Trace.Child("engine-build")
	defer span.End()
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	n := len(ctx.Net.PoPs)
	if n < 2 {
		return nil, fmt.Errorf("core: network %q has fewer than two PoPs", ctx.Net.Name)
	}
	opts = opts.withDefaults()
	e := &Engine{Ctx: ctx, opts: opts, lg: obs.LoggerOrNop(opts.Logger)}
	if shared != nil && ctx.Impact == nil && shared.Ctx.Impact == nil &&
		opts.AlphaBuckets == shared.opts.AlphaBuckets && &ctx.Fractions[0] == &shared.Ctx.Fractions[0] {
		// α_ij = c_i + c_j reads only the fractions, and both contexts hold
		// the same n of them from one backing array, so the lineage's range
		// and buckets hold: every swap and custom-λ reprice lands here.
		e.alphaLo, e.alphaHi = shared.alphaLo, shared.alphaHi
		e.logBuckets, e.buckets = shared.logBuckets, shared.buckets
	} else if err := e.quantize(); err != nil {
		return nil, err
	}
	if shared != nil && shared.opts.Metrics == opts.Metrics {
		e.tel = shared.tel // one registry resolves the same handles
	} else {
		e.tel = newEngineObs(opts.Metrics)
	}

	links := ctx.Net.Links
	e.rho = make([]float64, n)
	for v := range e.rho {
		e.rho[v] = ctx.NodeRisk(v)
	}
	e.span = make([]float64, len(links))
	r := make([]float64, len(links))
	for li, l := range links {
		e.span[li] = ctx.LinkRisk(l.A, l.B)
		r[li] = (e.rho[l.A]+e.rho[l.B])/2 + e.span[li] // ctx.EdgeRisk, from the ρ above
		if !(r[li] >= 0) || math.IsInf(r[li], 1) {
			return nil, fmt.Errorf("core: network %q link %d has invalid risk %v", ctx.Net.Name, li, r[li])
		}
	}
	if shared != nil {
		e.miles, e.components, e.unreachable = shared.miles, shared.components, shared.unreachable
		e.trees = shared.trees
		e.adj = shared.adj.WithSlopes(r)
		if e.rows = shared.rows; &ctx.Hist[0] != &shared.Ctx.Hist[0] {
			// The rows sum the lineage's o_h: another Hist starts an empty
			// store over the same unmasked adjacency.
			e.rows = &boundRows{adj: shared.rows.adj}
		}
	} else {
		e.miles = make([]float64, len(links))
		edges := make([]graph.Edge, len(links))
		for li, l := range links {
			e.miles[li] = ctx.Net.LinkMiles(l)
			edges[li] = graph.Edge{U: l.A, V: l.B, Weight: e.miles[li]}
		}
		e.adj = graph.NewAffine(n, edges, r)
		e.components, e.unreachable = census(e.adj)
		e.trees = new(shortestTrees)
		e.rows = &boundRows{adj: e.adj}
	}

	// Fragmented topologies (a lenient parse can keep them) still route
	// within each component; cross-component pairs are unreachable and the
	// evaluations skip them. Surface the fact rather than failing the build.
	if e.components > 1 {
		opts.Health.Degrade("engine", nil,
			"network %q has %d components: %d of %d PoP pairs unreachable",
			ctx.Net.Name, e.components, e.unreachable, n*(n-1)/2)
	} else {
		opts.Health.Record("engine", "built over %d PoPs, %d links", n, len(links))
	}

	k := len(e.buckets)
	span.SetAttr("pops", n)
	span.SetAttr("links", len(links))
	span.SetAttr("alpha_buckets", k)
	span.SetAttr("components", e.components)
	e.tel.alphaBuckets.Set(float64(k))
	e.tel.unreachable.Set(float64(e.unreachable))
	buildSeconds := time.Since(start).Seconds()
	e.tel.buildSeconds.Observe(buildSeconds)
	e.lg.Info("engine built", "network", ctx.Net.Name,
		"pops", n, "links", len(links),
		"alpha_buckets", k, "components", e.components,
		"seconds", buildSeconds)
	return e, nil
}

// WithoutLinks returns an engine with the given links (indices into
// Ctx.Net.Links) failed, in O(N+E): it shares everything with e but a
// masked adjacency and its component census. It keeps no α = 0 trees,
// since e's may cross a failed link, but keeps e's bound rows, which a
// failed link cannot invalidate: it only lengthens paths. Its searches and
// census, and those of engines Reprice derives from it, see only the
// surviving links; what reads Ctx.Net itself (ExportOSPFWeights, WithLink
// and so GreedyAdditionalLinks) still sees every link.
func (e *Engine) WithoutLinks(disabled []int) (*Engine, error) {
	for _, li := range disabled {
		if li < 0 || li >= len(e.miles) {
			return nil, fmt.Errorf("core: failed link %d out of range", li)
		}
	}
	c := *e
	c.adj = e.adj.Without(disabled, nil)
	c.components, c.unreachable = census(c.adj)
	c.trees = nil
	return &c, nil
}

// quantize sets the engine's α range from its context and spaces
// opts.AlphaBuckets buckets over it.
func (e *Engine) quantize() error {
	var err error
	if e.alphaLo, e.alphaHi, err = alphaRange(e.Ctx); err != nil {
		return err
	}
	k := e.opts.AlphaBuckets
	if e.alphaHi <= e.alphaLo {
		k = 1 // all pairs share one α
	}
	// Skewed impact distributions (e.g. gravity-model traffic matrices)
	// spread α over orders of magnitude; log-spaced buckets keep the
	// relative quantization error bounded there, while linear spacing
	// serves the paper's additive α = c_i + c_j well.
	e.logBuckets = k > 1 && e.alphaLo > 0 && e.alphaHi/e.alphaLo > 32
	e.buckets = make([]float64, k)
	for b := 0; b < k; b++ {
		f := (float64(b) + 0.5) / float64(k)
		if e.logBuckets {
			e.buckets[b] = e.alphaLo * math.Exp(f*math.Log(e.alphaHi/e.alphaLo))
		} else {
			e.buckets[b] = e.alphaLo + (e.alphaHi-e.alphaLo)*f
		}
	}
	return nil
}

// census returns the number of connected components of adj and the number
// of unordered node pairs split across them.
func census(adj *graph.Affine) (components, unreachable int) {
	_, sizes := adj.Components()
	n, reachable := 0, 0
	for _, c := range sizes {
		n += c
		reachable += c * (c - 1) / 2
	}
	return len(sizes), n*(n-1)/2 - reachable
}

// alphaRange returns the smallest and largest pairwise impact of ctx.
func alphaRange(ctx *risk.Context) (lo, hi float64, err error) {
	lo, hi = math.Inf(1), math.Inf(-1)
	if ctx.Impact != nil {
		// Arbitrary impact override: scan all pairs for the true range.
		n := len(ctx.Net.PoPs)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a := ctx.Alpha(i, j)
				if !(a >= 0) || math.IsInf(a, 1) {
					return 0, 0, fmt.Errorf("core: invalid impact %v for pair (%d,%d)", a, i, j)
				}
				if a < lo {
					lo = a
				}
				if a > hi {
					hi = a
				}
			}
		}
		return lo, hi, nil
	}
	for _, f := range ctx.Fractions {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return 2 * lo, 2 * hi, nil
}

// N returns the PoP count.
func (e *Engine) N() int { return len(e.Ctx.Net.PoPs) }

// Components returns the number of connected components of the topology the
// engine was built over (1 for a whole network).
func (e *Engine) Components() int { return e.components }

// UnreachablePairs returns the number of unordered PoP pairs split across
// components (0 for a whole network). The all-pairs evaluations skip them.
func (e *Engine) UnreachablePairs() int { return e.unreachable }

// bucketOf maps an impact value to its quantization bucket.
func (e *Engine) bucketOf(alpha float64) int {
	k := len(e.buckets)
	if k == 1 || e.alphaHi <= e.alphaLo {
		return 0
	}
	var b int
	if e.logBuckets {
		if alpha <= e.alphaLo {
			return 0
		}
		b = int(float64(k) * math.Log(alpha/e.alphaLo) / math.Log(e.alphaHi/e.alphaLo))
	} else {
		b = int(float64(k) * (alpha - e.alphaLo) / (e.alphaHi - e.alphaLo))
	}
	if b < 0 {
		b = 0
	}
	if b >= k {
		b = k - 1
	}
	return b
}

// Prebuild is a no-op, kept so existing callers compile. An engine's query
// methods are safe for concurrent callers from construction, without any
// preparation.
func (e *Engine) Prebuild() {}

// PairResult describes one routed pair.
type PairResult struct {
	Path         []int
	BitRiskMiles float64 // Equation 1 cost at the pair's exact α
	Miles        float64 // geographic path length
}

// RiskRoutePair solves Equation 3 for one pair with the pair's exact α
// (no quantization): the minimum bit-risk-mile path from i to j.
func (e *Engine) RiskRoutePair(i, j int) PairResult {
	return e.route(i, j, e.Ctx.Alpha(i, j))
}

// ShortestPair routes i to j by pure geographic shortest path (α = 0) and
// prices it in bit-risk miles — the baseline of Equations 5 and 6. It walks
// the lineage's α = 0 tree for i, which the first query from i sweeps; a
// WithoutLinks view, which has no trees, searches i→j with an early exit.
func (e *Engine) ShortestPair(i, j int) PairResult {
	if e.trees == nil {
		return e.route(i, j, 0)
	}
	via := e.shortestTree(i)
	return e.price(i, j, e.treePath(via, i, j), via)
}

// route searches i→j under weights m_e + alpha·r_e and prices the path at
// the pair's own α. The search is goal-directed (graph.Affine.RouteGuided,
// steered by pairBound), and its answer is the unguided search's bit for
// bit; a pair the bound rows mark unreachable answers without a search.
func (e *Engine) route(i, j int, alpha float64) PairResult {
	b := e.pairBound(j, alpha)
	if math.IsInf(b.at(i), 1) {
		return e.price(i, j, nil, nil)
	}
	s, fellBack := e.adj.RouteGuided(i, j, alpha, b.at)
	defer s.Release()
	if fellBack {
		e.tel.fallbacks.Inc()
	}
	return e.price(i, j, s.PathTo(j), s.Via)
}

// boundRel is pairBound's relative margin: it absorbs the rounding of the
// float sums along paths and of the bound's own products, each a few units
// in 2^53.
const boundRel = 1e-9

// pairBound is a lower bound on node v's remaining cost to target j at
// impact α, read from j's bound rows: d0[v] + α·(λ_h·ri[v] + (ρ_v + ρ_j)/2)
// less boundRel, 0 at j and +Inf where j is unreachable (never NaN, which
// d0 = +Inf would give through Inf − Inf and 0·Inf). See the package
// comment for why it is admissible and consistent; a masked view only
// lengthens paths, so the lineage's rows bound there too.
type pairBound struct {
	row                []boundEntry
	rho                []float64
	j                  int
	alpha, lambdaH, rj float64
}

func (e *Engine) pairBound(j int, alpha float64) pairBound {
	return pairBound{row: e.boundRow(j), rho: e.rho, j: j,
		alpha: alpha, lambdaH: e.Ctx.Params.LambdaH, rj: e.rho[j]}
}

// at returns the bound at node v.
func (b *pairBound) at(v int) float64 {
	if v == b.j {
		return 0
	}
	r := b.row[v]
	if math.IsInf(float64(r.d0), 1) {
		return math.Inf(1)
	}
	h := float64(r.d0) + b.alpha*(b.lambdaH*float64(r.ri)+(b.rho[v]+b.rj)/2)
	return h - h*boundRel
}

// boundRows holds an engine lineage's bound rows, one per target, each
// filled on the first query toward it. The slot array is allocated on
// first use, so an engine that routes no pair holds none of it.
type boundRows struct {
	adj   *graph.Affine // the lineage's unmasked adjacency, which fills sweep
	once  sync.Once
	slots []atomic.Pointer[[]boundEntry] // slot j: target j's row, nil until filled
}

// boundEntry is one PoP's entry in a target's row: d0, its α = 0 distance
// to the target, and ri, the least historical risk Σ o_h over the PoPs
// strictly between, each rounded toward −∞ to float32 (+Inf both where the
// target is unreachable).
type boundEntry struct{ d0, ri float32 }

// boundRow returns target j's row from the lineage's store, filling it on
// the first query toward j with two sweeps from j: one at α = 0, and one
// that charges each PoP entered its o_h, whose label at v less o_h(v) is
// ri[v]. Concurrent first queries toward j may each fill; their rows are
// identical.
func (e *Engine) boundRow(j int) []boundEntry {
	r := e.rows
	r.once.Do(func() { r.slots = make([]atomic.Pointer[[]boundEntry], e.N()) })
	slot := &r.slots[j]
	if row := slot.Load(); row != nil {
		return *row
	}
	row := make([]boundEntry, e.N())
	s := r.adj.Sweep(j, 0)
	for v, d := range s.Dist {
		row[v].d0 = down32(d)
	}
	s.Release()
	hist := e.Ctx.Hist
	s = r.adj.SweepEntering(j, hist)
	for v, d := range s.Dist {
		if v != j {
			row[v].ri = down32(d - hist[v])
		}
	}
	s.Release()
	slot.Store(&row)
	return row
}

// down32 rounds x to the largest float32 not above it.
func down32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// price prices path, which enters each node v after the first by link
// via[v], at the pair (i, j)'s own α.
func (e *Engine) price(i, j int, path []int, via []int32) PairResult {
	if path == nil {
		return PairResult{BitRiskMiles: math.Inf(1), Miles: math.Inf(1)}
	}
	pairAlpha := e.Ctx.Alpha(i, j)
	var cost, miles float64
	// PathCost's and PathMiles's exact accumulation, with each hop's miles
	// and span risk read from the link the search arrived by.
	for _, v := range path[1:] {
		l := via[v]
		cost += e.miles[l]
		cost += pairAlpha * (e.rho[v] + e.span[l])
		miles += e.miles[l]
	}
	return PairResult{Path: path, BitRiskMiles: cost, Miles: miles}
}

// shortestTrees holds an engine lineage's α = 0 shortest-path trees, one
// per source, each swept on its first query. The α = 0 tree depends only on
// topology and link miles, which Reprice keeps, so every engine Reprice
// derives shares the store of the engine New built. A tree is kept as its
// search's Via alone, 4·N bytes; the slot array is allocated on first use,
// so an engine that never answers ShortestPair holds none of it.
type shortestTrees struct {
	once  sync.Once
	slots []atomic.Pointer[[]int32] // slot i: source i's Via, nil until swept
}

// shortestTree returns source i's tree from the lineage's store, sweeping
// it on the first query from i: the link each node's α = 0 path arrives by,
// -1 at i and at the nodes i cannot reach. Concurrent first queries from i
// may each sweep; their trees are identical.
func (e *Engine) shortestTree(i int) []int32 {
	t := e.trees
	t.once.Do(func() { t.slots = make([]atomic.Pointer[[]int32], e.N()) })
	slot := &t.slots[i]
	if via := slot.Load(); via != nil {
		return *via
	}
	s := e.adj.Sweep(i, 0)
	via := append([]int32(nil), s.Via...)
	s.Release()
	slot.Store(&via)
	return via
}

// treePath walks source i's tree via back from j and returns the path
// i → j, nil when j is unreachable: a hop's predecessor is the other
// endpoint of the link it arrives by. The full sweep settles j exactly as
// Route(i, j, 0)'s early exit does, so the path is Route's.
func (e *Engine) treePath(via []int32, i, j int) []int {
	if j != i && via[j] < 0 {
		return nil
	}
	links := e.Ctx.Net.Links
	pred := func(v int) int {
		l := links[via[v]]
		if l.A == v {
			return l.B
		}
		return l.A
	}
	hops := 0
	for v := j; v != i; v = pred(v) {
		hops++
	}
	path := make([]int, hops+1)
	for v, x := j, hops; x > 0; v, x = pred(v), x-1 {
		path[x] = v
	}
	path[0] = i
	return path
}

// describe prices an arbitrary path for the pair (i, j) through the
// context's own PathCost and PathMiles.
func (e *Engine) describe(path []int, i, j int) PairResult {
	if path == nil {
		return PairResult{BitRiskMiles: math.Inf(1), Miles: math.Inf(1)}
	}
	return PairResult{
		Path:         path,
		BitRiskMiles: e.Ctx.PathCost(path, i, j),
		Miles:        e.Ctx.PathMiles(path),
	}
}

// sweep runs a full search from src under weights m_e + alpha·r_e and
// accumulates, along its shortest-path tree, each node's geographic path
// length and entered-node risk sum (Σ ρ(p_x) plus span risk, x ≥ 2), so a
// pair's Equation 1 cost is miles[v] + α·entered[v]. Unreachable nodes
// carry +Inf in both.
func (e *Engine) sweep(src int, alpha float64) (miles, entered []float64) {
	n := e.N()
	miles = make([]float64, n)
	entered = make([]float64, n)
	for v := range miles {
		miles[v] = math.Inf(1)
		entered[v] = math.Inf(1)
	}
	s := e.adj.Sweep(src, alpha)
	defer s.Release()
	miles[src], entered[src] = 0, 0
	// Settle order visits every node after its predecessor.
	for _, v := range s.Order[1:] {
		p, l := s.Prev[v], s.Via[v]
		miles[v] = miles[p] + e.miles[l]
		entered[v] = entered[p] + e.rho[v] + e.span[l]
	}
	return miles, entered
}

// pairCost is one reachable destination of a source's pass, priced at the
// pair's exact α: the shortest path's cost and miles, and the bucket
// route's, clamped to the shortest path's. The true optimum never prices
// above the shortest path, so any excess is pure bucket error, and
// RiskRoute would keep the shortest path there.
type pairCost struct {
	cost, miles             float64
	shortest, shortestMiles float64
}

// pass is the per-source all-pairs pass behind Evaluate, TotalBitRisk and
// TotalBitRiskSubset: one α = 0 sweep from i, then one sweep per α bucket
// the destinations js fall in, in ascending bucket order. It visits every
// destination but i that the bucket route reaches, in js's order within
// its bucket.
func (e *Engine) pass(i int, js []int, visit func(pairCost)) {
	byBucket := make([][]int, len(e.buckets))
	for _, j := range js {
		if j != i {
			b := e.bucketOf(e.Ctx.Alpha(i, j))
			byBucket[b] = append(byBucket[b], j)
		}
	}
	sMiles, sEntered := e.sweep(i, 0)
	for b, group := range byBucket {
		if len(group) == 0 {
			continue
		}
		rMiles, rEntered := e.sweep(i, e.buckets[b])
		for _, j := range group {
			if math.IsInf(rMiles[j], 1) {
				continue
			}
			alpha := e.Ctx.Alpha(i, j)
			c := pairCost{cost: rMiles[j] + alpha*rEntered[j], miles: rMiles[j],
				shortest: sMiles[j] + alpha*sEntered[j], shortestMiles: sMiles[j]}
			if c.cost > c.shortest {
				c.cost, c.miles = c.shortest, c.shortestMiles
			}
			visit(c)
		}
	}
}

// indices returns 0, 1, …, n-1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Ratios aggregates Equations 5 and 6.
type Ratios struct {
	// RiskReduction is rr: the mean fractional decrease in bit-risk miles of
	// RiskRoute paths versus shortest paths (0.2 ⇒ 20% lower risk).
	RiskReduction float64
	// DistanceIncrease is dr: the mean fractional increase in bit-miles of
	// RiskRoute paths versus shortest paths (0.2 ⇒ 20% longer routes).
	DistanceIncrease float64
	// Pairs is the number of ordered PoP pairs aggregated.
	Pairs int
}

// Evaluate computes the risk-reduction and distance-increase ratios over all
// ordered PoP pairs using α-quantized routing (costs are evaluated at each
// pair's exact α). Pairs i = j are excluded from the average, matching the
// ratio's intent.
func (e *Engine) Evaluate() Ratios {
	return e.EvaluateSubset(nil, nil)
}

// EvaluateSubset restricts the aggregation to the given source and
// destination PoP index sets (nil means all). Used by the interdomain
// experiments, where sources are one regional network's PoPs and
// destinations are every regional PoP.
func (e *Engine) EvaluateSubset(sources, dests []int) Ratios {
	if sources == nil {
		sources = indices(e.N())
	}
	if dests == nil {
		dests = indices(e.N())
	}

	type partial struct {
		riskSum, distSum float64
		pairs            int
	}
	sweepStart := time.Now()
	sweep := e.opts.Trace.Child("sweep")
	defer sweep.End()
	workers := parallel.Workers(len(sources), e.opts.Workers)
	e.tel.workers.Set(float64(workers))
	e.tel.evaluations.Inc()
	partials := parallel.Map(len(sources), workers, func(si int) partial {
		started := time.Now()
		i := sources[si]
		var p partial
		e.pass(i, dests, func(c pairCost) {
			// Skip zero-cost pairs (co-located PoPs in composite
			// interdomain graphs have zero miles).
			if math.IsInf(c.shortest, 1) || math.IsInf(c.cost, 1) || c.shortest == 0 || c.shortestMiles == 0 {
				return
			}
			p.riskSum += c.cost / c.shortest
			p.distSum += c.miles / c.shortestMiles
			p.pairs++
		})
		e.tel.sourceSeconds.Observe(time.Since(started).Seconds())
		return p
	})

	var riskSum, distSum float64
	pairs := 0
	for _, p := range partials {
		riskSum += p.riskSum
		distSum += p.distSum
		pairs += p.pairs
	}
	e.tel.pairs.Add(int64(pairs))
	sweep.SetAttr("sources", len(sources))
	sweep.SetAttr("workers", workers)
	sweep.SetAttr("pairs", pairs)
	e.lg.Info("sweep complete", "sources", len(sources),
		"pairs", pairs, "workers", workers,
		"seconds", time.Since(sweepStart).Seconds())
	if pairs == 0 {
		return Ratios{}
	}
	return Ratios{
		RiskReduction:    1 - riskSum/float64(pairs),
		DistanceIncrease: distSum/float64(pairs) - 1,
		Pairs:            pairs,
	}
}

// EvaluateExact computes the same ratios with one exact-α Dijkstra per pair.
// Quadratically many searches: intended for verification and small networks.
func (e *Engine) EvaluateExact() Ratios {
	n := e.N()
	var riskSum, distSum float64
	pairs := 0
	for i := 0; i < n; i++ {
		sMiles, sEntered := e.sweep(i, 0)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			alpha := e.Ctx.Alpha(i, j)
			rr := e.RiskRoutePair(i, j)
			rShortest := sMiles[j] + alpha*sEntered[j]
			if math.IsInf(rShortest, 1) || math.IsInf(rr.BitRiskMiles, 1) || rShortest == 0 {
				continue
			}
			riskSum += rr.BitRiskMiles / rShortest
			distSum += rr.Miles / sMiles[j]
			pairs++
		}
	}
	if pairs == 0 {
		return Ratios{}
	}
	return Ratios{
		RiskReduction:    1 - riskSum/float64(pairs),
		DistanceIncrease: distSum/float64(pairs) - 1,
		Pairs:            pairs,
	}
}

// TotalBitRisk returns Equation 4's objective for the current topology: the
// sum over unordered pairs of the minimum bit-risk miles (α-quantized
// routing, exact-α pricing).
func (e *Engine) TotalBitRisk() float64 {
	n := e.N()
	span := e.opts.Trace.Child("total-bit-risk")
	defer span.End()
	all := indices(n)
	workers := parallel.Workers(n, e.opts.Workers)
	e.tel.workers.Set(float64(workers))
	partials := parallel.Map(n, workers, func(i int) float64 {
		sub := 0.0
		e.pass(i, all[i+1:], func(c pairCost) { sub += c.cost })
		return sub
	})
	total := 0.0
	for _, p := range partials {
		total += p
	}
	return total
}

// TotalBitRiskSubset sums the minimum bit-risk miles over the given
// source×destination pairs (unordered: each {i, j} counted once, by the
// first source that sweeps it; i = j and unreachable pairs skipped). The
// interdomain analysis uses this as the lower-bound objective when scoring
// new peering relationships. Each source returns its costs in visit order
// and the sum runs serially over them, so the bits ignore the worker count.
func (e *Engine) TotalBitRiskSubset(sources, dests []int) float64 {
	n := e.N()
	inDest := make([]bool, n)
	for _, j := range dests {
		inDest[j] = true
	}
	// first[v] is one past v's first position in sources (0: absent). That
	// source counts each pair {v, j} unless j swept earlier with v among its
	// destinations.
	first := make([]int, n)
	for si, i := range sources {
		if first[i] == 0 {
			first[i] = si + 1
		}
	}
	workers := parallel.Workers(len(sources), e.opts.Workers)
	e.tel.workers.Set(float64(workers))
	costs := parallel.Map(len(sources), workers, func(si int) []float64 {
		i := sources[si]
		if first[i] != si+1 {
			return nil // a repeat
		}
		var js []int
		for j, ok := range inDest {
			if ok && !(inDest[i] && first[j] != 0 && first[j] <= si) {
				js = append(js, j)
			}
		}
		var out []float64
		e.pass(i, js, func(c pairCost) { out = append(out, c.cost) })
		return out
	})
	total := 0.0
	for _, cs := range costs {
		for _, c := range cs {
			total += c
		}
	}
	return total
}
