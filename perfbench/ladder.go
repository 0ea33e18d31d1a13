package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"riskroute"
	"riskroute/internal/core"
	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/graph"
	"riskroute/internal/hazard"
	"riskroute/internal/interdomain"
	"riskroute/internal/population"
	"riskroute/internal/risk"
	"riskroute/internal/serve"
	worldsnap "riskroute/internal/snapshot"
	"riskroute/internal/topology"
)

// Traced-run sample sizes: reads whose layers are timed one call at a
// time, bulletins timed through the forecast and build rungs, ops replayed
// over a loopback socket, and ops replayed to count allocations.
const (
	ladderReads     = 2000
	ladderBulletins = 10
	loopbackOps     = 3000
	allocOps        = 20000
)

// planningNetwork is where the planning rungs run: Level3 is the one
// network whose O(candidates·N²) link scoring is visible. peeringNetwork is
// the regional whose new-peering query the interdomain rungs replay.
const (
	planningNetwork = "Level3"
	peeringNetwork  = "Telepak"
)

// traced is the per-layer run: it repeats the workload on a traced and an
// untraced daemon, op by op, and times the public entry point of each layer
// underneath on the same inputs.
func traced(workload, dir string, ops []op, corpus []string) (*result, error) {
	cpu0, cpuOK := readCPUTimes()
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// World rungs, one call each per pass.
	path := dir + "/world.rrws"
	var fit, census, bake, write, load, boot []float64
	var model *hazard.Model
	var cens *population.Census
	var world *worldsnap.World
	for r := 0; r < setupReps; r++ {
		model, cens, world = nil, nil, nil
		t := time.Now()
		mdl, err := hazard.Fit(riskroute.SyntheticHazardSources(0.2, 1), hazard.FitConfig{})
		if err != nil {
			return nil, err
		}
		fit = append(fit, since(t))
		t = time.Now()
		c := datasets.GenerateCensus(datasets.CensusConfig{Blocks: 20000, Seed: 1})
		census = append(census, since(t))
		t = time.Now()
		w, err := serve.BakeWorld(serve.Config{Blocks: 20000, EventScale: 0.2, Seed: 1})
		if err != nil {
			return nil, err
		}
		bake = append(bake, since(t))
		t = time.Now()
		if _, err := worldsnap.WriteFile(path, w); err != nil {
			return nil, err
		}
		write = append(write, since(t))
		t = time.Now()
		if _, _, err := worldsnap.Load(path, worldsnap.LoadOptions{}); err != nil {
			return nil, err
		}
		load = append(load, since(t))
		_, b, err := bootServer(daemonConfig(path))
		if err != nil {
			return nil, err
		}
		boot = append(boot, b)
		model, cens, world = mdl, c, w
	}
	put("hazard.fit_s", median(fit), "s")
	put("population.census_s", median(census), "s")
	put("serve.bake_s", median(bake), "s")
	put("snapshot.write_s", median(write), "s")
	put("snapshot.load_s", median(load), "s")
	put("serve.boot_s", median(boot), "s")

	// The workload, op by op through a traced and an untraced daemon; the
	// server that goes first alternates so neither gains from warm caches.
	tracedSrv, _, err := bootServer(daemonConfig(path))
	if err != nil {
		return nil, err
	}
	plainCfg := daemonConfig(path)
	plainCfg.DisableTracing = true
	plainSrv, _, err := bootServer(plainCfg)
	if err != nil {
		return nil, err
	}
	tr, pl, err := drivePair(tracedSrv.Handler(), plainSrv.Handler(), ops, corpus)
	if err != nil {
		return nil, err
	}
	nets := datasets.BuildNetworks()
	chk := newChecker(nets, world, corpus)
	bad := chk.verify(ops, tr)
	for i, why := range chk.verify(ops, pl) {
		bad[i] = why
	}
	reportFailures(bad, ops)
	hits, misses := tracedSrv.CacheStats()
	hitRatio := float64(hits) / float64(hits+misses)
	put("serve.cache_hit_ratio", hitRatio, "ratio")
	trReads, _ := byKind(ops, tr.opTime)
	plReads, _ := byKind(ops, pl.opTime)
	handler := medianDur(trReads, time.Microsecond)
	untraced := medianDur(plReads, time.Microsecond)
	put("serve.handler_us", handler, "us")
	put("serve.handler_untraced_us", untraced, "us")
	put("obs.middleware_us", handler-untraced, "us")
	put("host.slowdown", slowdown(tr.refWall), "ratio")

	// Swap rungs on the untraced daemon, after its pass.
	swapTexts := swapBulletins(ops, corpus)
	var apply []float64
	for _, text := range swapTexts {
		t := time.Now()
		if _, _, err := plainSrv.ApplyAdvisory(text); err != nil {
			return nil, err
		}
		apply = append(apply, since(t)*1e3)
	}
	put("serve.apply_advisory_ms", median(apply), "ms")
	var parse, popRisks, prebuild []float64
	rm := forecast.DefaultRiskModel()
	for _, text := range swapTexts {
		t := time.Now()
		adv, err := forecast.ParseAdvisory(text)
		if err != nil {
			return nil, err
		}
		parse = append(parse, since(t)*1e6)
		var pr, pb float64
		for _, n := range nets {
			t = time.Now()
			fc := rm.PoPRisks(adv, n)
			pr += since(t)
			ns := world.Network(n.Name)
			eng, err := core.New(&risk.Context{Net: n, Hist: ns.Hist, Forecast: fc,
				Fractions: ns.Fractions, Params: risk.PaperParams()}, core.Options{})
			if err != nil {
				return nil, err
			}
			t = time.Now()
			eng.Prebuild()
			pb += since(t)
		}
		popRisks = append(popRisks, pr*1e6)
		prebuild = append(prebuild, pb*1e3)
	}
	put("forecast.parse_us", median(parse), "us")
	put("forecast.pop_risks_us", median(popRisks), "us")
	put("core.prebuild_ms", median(prebuild), "ms")

	// Route rungs on a sample of the workload's reads, on the baked vectors.
	rungs, err := routeRungs(chk, ops, tr)
	if err != nil {
		return nil, err
	}
	for _, name := range rungNames {
		put(name, median(rungs.us[name]), "us")
	}

	if err := planningRungs(put, nets, world, model, cens); err != nil {
		return nil, err
	}

	allocs, bytes, gcs, err := allocPass(path, ops, corpus)
	if err != nil {
		return nil, err
	}
	put("runtime.allocs_per_op", allocs, "count")
	put("runtime.alloc_bytes_per_op", bytes, "B")
	put("runtime.gc_cycles", gcs, "count")

	loop, err := loopback(path, ops, corpus, tr)
	if err != nil {
		return nil, err
	}
	put("net.loopback_us", loop, "us")

	steal := 0.0
	if cpu1, ok := readCPUTimes(); ok && cpuOK {
		steal = stealPct(cpu0, cpu1)
	}
	put("host.steal_pct", steal, "%")

	printReconciliation(workload, ops, tr, pl, rungs)
	fmt.Printf("perfbench: %s tracing overhead: %.2f us per read (median traced %.2f us vs untraced %.2f us, %+.1f%%)\n",
		workload, handler-untraced, handler, untraced, 100*(handler-untraced)/untraced)
	fmt.Printf("perfbench: %s cache_hits=%d cache_misses=%d hit_ratio=%.6f gomaxprocs=%d\n",
		workload, hits, misses, hitRatio, runtime.GOMAXPROCS(0))
	return &result{Correct: len(bad) == 0, Attempted: len(ops), Failed: len(bad), Metrics: m}, nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// swapBulletins returns the texts of the workload's first ladderBulletins
// advisory ops.
func swapBulletins(ops []op, corpus []string) []string {
	var out []string
	for _, o := range ops {
		if o.kind == opAdvisory && len(out) < ladderBulletins {
			out = append(out, corpus[o.bulletin])
		}
	}
	return out
}

// drivePair sends every op through two handlers, alternating which goes
// first, and records both passes; la.refWall holds the calibration tasks
// run after every refEvery-th op.
func drivePair(a, b http.Handler, ops []op, corpus []string) (*runLog, *runLog, error) {
	la, lb := newRunLog(len(ops)), newRunLog(len(ops))
	rec := newRecorder()
	ref := newRefGraph()
	afterSwap := false
	for i, o := range ops {
		keep := o.kind == opAdvisory || afterSwap || i%checkEvery == 0
		afterSwap = o.kind == opAdvisory
		first, second := a, b
		lfirst, lsecond := la, lb
		if i%2 == 1 {
			first, second, lfirst, lsecond = b, a, lb, la
		}
		for _, side := range []struct {
			h  http.Handler
			lg *runLog
		}{{first, lfirst}, {second, lsecond}} {
			req, err := newRequest(o, corpus)
			if err != nil {
				return nil, nil, err
			}
			rec.reset()
			t0 := time.Now()
			side.h.ServeHTTP(rec, req)
			side.lg.record(i, time.Since(t0), rec, keep)
		}
		if (i+1)%refEvery == 0 {
			w, _ := ref.run()
			la.refWall = append(la.refWall, w)
		}
	}
	return la, lb, nil
}

// routeSample is the per-read rung timings of routeRungs, with the index of
// each sampled op.
type routeSample struct {
	idx []int
	us  map[string][]float64
}

var rungNames = []string{
	"graph.shortest_path_us", "risk.weighted_graph_us", "risk.path_cost_us",
	"core.risk_route_pair_us", "core.shortest_pair_us", "core.engine_new_us",
}

// routeRungs times, for up to ladderReads checked reads spread over the op
// list, each layer's public call on the inputs the daemon routed that read
// on: the risk-weighted graph for the pair's α, the graph search on it,
// the path pricing, the engine's pair queries, and the request-scoped
// engine build a non-default λ costs.
func routeRungs(chk *checker, ops []op, tr *runLog) (*routeSample, error) {
	var reads []int // reads whose bodies the pass kept, so hits are known
	bulletinAt := make([]int, len(ops))
	b := -1
	for i, o := range ops {
		if o.kind == opAdvisory {
			b = o.bulletin
		} else if _, ok := tr.bodies[i]; ok {
			reads = append(reads, i)
		}
		bulletinAt[i] = b
	}
	stride := (len(reads) + ladderReads - 1) / ladderReads
	s := &routeSample{us: make(map[string][]float64)}
	add := func(name string, t time.Time) { s.us[name] = append(s.us[name], since(t)*1e6) }
	for k := 0; k < len(reads); k += stride {
		i := reads[k]
		o := ops[i]
		ctx, err := chk.context(o.network, bulletinAt[i], o.lambdaH)
		if err != nil {
			return nil, err
		}
		eng, err := chk.engine(o.network, bulletinAt[i], o.lambdaH)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		g := ctx.WeightedGraph(ctx.Alpha(o.src, o.dst))
		add("risk.weighted_graph_us", t)
		t = time.Now()
		path, _ := g.ShortestPath(o.src, o.dst)
		add("graph.shortest_path_us", t)
		t = time.Now()
		ctx.PathCost(path, o.src, o.dst)
		add("risk.path_cost_us", t)
		t = time.Now()
		eng.RiskRoutePair(o.src, o.dst)
		add("core.risk_route_pair_us", t)
		t = time.Now()
		eng.ShortestPair(o.src, o.dst)
		add("core.shortest_pair_us", t)
		t = time.Now()
		if _, err := core.New(ctx, core.Options{}); err != nil {
			return nil, err
		}
		add("core.engine_new_us", t)
		s.idx = append(s.idx, i)
	}
	return s, nil
}

// planningRungs times the provisioning and peering layers once each: the
// calls `riskroute provision` makes on planningNetwork and the calls one
// candidate of `riskroute peers` on peeringNetwork makes.
func planningRungs(put func(string, float64, string), nets []*topology.Network,
	world *worldsnap.World, model *hazard.Model, cens *population.Census) error {
	params := risk.Params{LambdaH: 1e5} // the CLI's provisioning default
	var pn *topology.Network
	for _, n := range nets {
		if n.Name == planningNetwork {
			pn = n
		}
	}
	ns := world.Network(planningNetwork)
	if pn == nil || ns == nil {
		return fmt.Errorf("planning network %q missing", planningNetwork)
	}
	ctx := &risk.Context{Net: pn, Hist: ns.Hist, Fractions: ns.Fractions, Params: params}
	eng, err := core.New(ctx, core.Options{})
	if err != nil {
		return err
	}
	ms := func(t time.Time) float64 { return since(t) * 1e3 }
	t := time.Now()
	eng.TotalBitRisk()
	put("core.total_bit_risk_ms", ms(t), "ms")
	t = time.Now()
	cands := eng.CandidateLinks()
	put("core.candidate_links_ms", ms(t), "ms")
	t = time.Now()
	graph.NewAllPairsTable(ctx.WeightedGraph(ctx.Alpha(0, 1)))
	put("graph.all_pairs_table_ms", ms(t), "ms")
	t = time.Now()
	if scored := eng.ScoreCandidates(cands); len(scored) == 0 {
		return fmt.Errorf("%s has no candidate links", planningNetwork)
	}
	put("core.score_candidates_ms", ms(t), "ms")

	t = time.Now()
	comp, err := interdomain.Build(nets, datasets.ArePeered)
	if err != nil {
		return err
	}
	put("interdomain.build_ms", ms(t), "ms")
	t = time.Now()
	fractions, err := interdomain.Fractions(comp, cens)
	if err != nil {
		return err
	}
	put("interdomain.fractions_ms", ms(t), "ms")
	t = time.Now()
	for _, n := range comp.Networks {
		if _, err := population.Assign(cens, n); err != nil {
			return err
		}
	}
	put("population.assign_ms", ms(t), "ms")
	t = time.Now()
	hist := model.PoPRisks(comp.Flat)
	put("hazard.pop_risks_ms", ms(t), "ms")
	an, err := interdomain.NewAnalysisPrecomputed(comp, hist, fractions, nil, params, core.Options{})
	if err != nil {
		return err
	}
	var dests []int
	for _, n := range datasets.RegionalNetworks() {
		dests = append(dests, comp.NodesOf(n.Name)...)
	}
	t = time.Now()
	if an.Engine.TotalBitRiskSubset(comp.NodesOf(peeringNetwork), dests) <= 0 {
		return fmt.Errorf("zero interdomain bit-risk for %s", peeringNetwork)
	}
	put("core.total_bit_risk_subset_ms", ms(t), "ms")
	return nil
}

// allocPass replays the first allocOps ops on a fresh daemon and returns
// the heap allocations and bytes per op the daemon made, net of what the
// same loop costs against a handler that does nothing, and the GC cycles
// the pass ran.
func allocPass(path string, ops []op, corpus []string) (allocs, bytes, gcs float64, err error) {
	if len(ops) > allocOps {
		ops = ops[:allocOps]
	}
	srv, _, err := bootServer(daemonConfig(path))
	if err != nil {
		return 0, 0, 0, err
	}
	measure := func(h http.Handler) (runtime.MemStats, error) {
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		_, err := drive(h, ops, corpus)
		runtime.ReadMemStats(&b)
		return runtime.MemStats{Mallocs: b.Mallocs - a.Mallocs, TotalAlloc: b.TotalAlloc - a.TotalAlloc,
			NumGC: b.NumGC - a.NumGC}, err
	}
	base, err := measure(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	if err != nil {
		return 0, 0, 0, err
	}
	got, err := measure(srv.Handler())
	if err != nil {
		return 0, 0, 0, err
	}
	n := float64(len(ops))
	return (float64(got.Mallocs) - float64(base.Mallocs)) / n,
		(float64(got.TotalAlloc) - float64(base.TotalAlloc)) / n, float64(got.NumGC), nil
}

// loopback replays the first loopbackOps ops to a fresh daemon over one
// keep-alive loopback connection and returns how much slower the median
// read is than the same reads in process.
func loopback(path string, ops []op, corpus []string, inproc *runLog) (float64, error) {
	if len(ops) > loopbackOps {
		ops = ops[:loopbackOps]
	}
	srv, _, err := bootServer(daemonConfig(path))
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tp := &http.Transport{MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: tp}
	base := "http://" + ln.Addr().String()

	var socket, local []time.Duration
	var runErr error
	for i, o := range ops {
		var req *http.Request
		if o.kind == opAdvisory {
			req, runErr = http.NewRequest(http.MethodPost, base+"/v1/advisory", strings.NewReader(corpus[o.bulletin]))
		} else {
			req, runErr = http.NewRequest(http.MethodGet, base+strings.TrimPrefix(o.target(), "GET "), nil)
		}
		if runErr != nil {
			break
		}
		t := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			runErr = err
			break
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(t)
		if err != nil || resp.StatusCode != http.StatusOK {
			runErr = fmt.Errorf("loopback op %d: status %d: %v", i, resp.StatusCode, err)
			break
		}
		if o.kind == opRoute {
			socket = append(socket, d)
			local = append(local, inproc.opTime[i])
		}
	}
	tp.CloseIdleConnections()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && runErr == nil {
		runErr = err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return 0, runErr
	}
	return medianDur(socket, time.Microsecond) - medianDur(local, time.Microsecond), nil
}

// printReconciliation prints, per read, how the layers' self-times add up
// to the end-to-end handler time, over the reads routeRungs sampled. Engine
// rungs count only on reads that missed the cache, and the request-scoped
// engine build only on reads with a non-default λ.
func printReconciliation(workload string, ops []op, tr, pl *runLog, s *routeSample) {
	var handler, untraced, coreT, riskT, graphT float64
	for k, i := range s.idx {
		handler += float64(tr.opTime[i]) / 1e3
		untraced += float64(pl.opTime[i]) / 1e3
		if tr.cached(i) {
			continue
		}
		engine := s.us["core.risk_route_pair_us"][k] + s.us["core.shortest_pair_us"][k]
		if ops[i].lambdaH != 0 {
			engine += s.us["core.engine_new_us"][k]
		}
		coreT += engine
		riskT += s.us["risk.weighted_graph_us"][k] + s.us["risk.path_cost_us"][k]
		graphT += s.us["graph.shortest_path_us"][k]
	}
	n := float64(len(s.idx))
	root := &rung{name: "obs (traced handler)", incl: handler / n, children: []*rung{{
		name: "serve (untraced handler)", incl: untraced / n, children: []*rung{{
			name: "core (engine pair queries)", incl: coreT / n, children: []*rung{
				{name: "risk (weighted graph + path cost)", incl: riskT / n},
				{name: "graph (shortest-path search)", incl: graphT / n},
			}}}}}}
	selfs := selfTimes(root)
	var sum float64
	var parts []string
	for _, st := range selfs {
		sum += st.self
		parts = append(parts, fmt.Sprintf("%s %.2f", st.name, st.self))
	}
	fmt.Printf("perfbench: %s reconciliation (mean us per read over %d reads): end-to-end %.2f = %s; self-times sum %.2f\n",
		workload, len(s.idx), root.incl, strings.Join(parts, " + "), sum)
}

// rung is one layer of the reconciliation tree: its inclusive time per op
// and the layers it calls.
type rung struct {
	name     string
	incl     float64
	children []*rung
}

type selfTime struct {
	name string
	self float64
}

// selfTimes returns each rung's self-time, top down: its inclusive time
// minus its children's. Children measured apart from their parent can sum
// past it; they are then scaled down to fit, so no self-time is negative
// and the self-times sum to the root's inclusive time.
func selfTimes(root *rung) []selfTime {
	var out []selfTime
	var walk func(r *rung, incl float64)
	walk = func(r *rung, incl float64) {
		var kids float64
		for _, c := range r.children {
			kids += math.Max(c.incl, 0)
		}
		self, scale := incl-kids, 1.0
		if kids > incl {
			self, scale = 0, incl/kids
		}
		out = append(out, selfTime{r.name, self})
		for _, c := range r.children {
			walk(c, math.Max(c.incl, 0)*scale)
		}
	}
	walk(root, math.Max(root.incl, 0))
	return out
}
