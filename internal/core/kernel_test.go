package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/geo"
	"riskroute/internal/graph"
	"riskroute/internal/risk"
	"riskroute/internal/stats"
	"riskroute/internal/topology"
)

// The engine answers every query with one CSR adjacency and an inline
// m_e + α·r_e Dijkstra kernel. The tests below hold it to the path it
// replaced, kept as the oracle: a materialized risk.Context.WeightedGraph,
// graph.ShortestPath / Dijkstra, and PathCost / PathMiles with a haversine
// per hop. Paths must be equal and every figure Float64bits-equal.

// oraclePair routes i→j on a materialized graph and prices the path
// through the context, as RiskRoutePair and ShortestPair once did.
func oraclePair(ctx *risk.Context, g *graph.Graph, i, j int) PairResult {
	path, _ := g.ShortestPath(i, j)
	if path == nil {
		return PairResult{BitRiskMiles: math.Inf(1), Miles: math.Inf(1)}
	}
	return PairResult{Path: path, BitRiskMiles: ctx.PathCost(path, i, j), Miles: ctx.PathMiles(path)}
}

// oracleTree is the pre-kernel tree walk: each node's miles and
// entered-node risk along a Graph.Dijkstra tree, one haversine and one
// context lookup per hop.
func oracleTree(ctx *risk.Context, t *graph.ShortestTree) (miles, entered []float64) {
	n := len(t.Dist)
	miles = make([]float64, n)
	entered = make([]float64, n)
	done := make([]bool, n)
	done[t.Source] = true
	var fill func(v int)
	fill = func(v int) {
		if done[v] {
			return
		}
		p := int(t.Prev[v])
		fill(p)
		miles[v] = miles[p] + ctx.Net.LinkMiles(topology.Link{A: p, B: v})
		entered[v] = entered[p] + ctx.NodeRisk(v) + ctx.LinkRisk(p, v)
		done[v] = true
	}
	for v := 0; v < n; v++ {
		if math.IsInf(t.Dist[v], 1) {
			miles[v], entered[v], done[v] = math.Inf(1), math.Inf(1), true
		} else {
			fill(v)
		}
	}
	return miles, entered
}

// oracleSweeps runs the old engine's per-source sweeps: the distance graph
// and the materialized graph of each α bucket.
type oracleSweeps struct {
	e      *Engine
	dist   *graph.Graph
	bucket map[int]*graph.Graph
}

func newOracleSweeps(e *Engine) *oracleSweeps {
	return &oracleSweeps{e: e, dist: e.Ctx.Net.Graph(), bucket: map[int]*graph.Graph{}}
}

func (o *oracleSweeps) shortest(i int) ([]float64, []float64) {
	return oracleTree(o.e.Ctx, o.dist.Dijkstra(i))
}

func (o *oracleSweeps) risky(b, i int) ([]float64, []float64) {
	g, ok := o.bucket[b]
	if !ok {
		g = o.e.Ctx.WeightedGraph(o.e.buckets[b])
		o.bucket[b] = g
	}
	return oracleTree(o.e.Ctx, g.Dijkstra(i))
}

// byBucket groups destinations by α bucket, in ascending bucket order.
func (o *oracleSweeps) byBucket(i int, js []int) ([]int, map[int][]int) {
	groups := map[int][]int{}
	for _, j := range js {
		b := o.e.bucketOf(o.e.Ctx.Alpha(i, j))
		groups[b] = append(groups[b], j)
	}
	return sortedInts(groups), groups
}

// sortedInts returns a map's keys in ascending order.
func sortedInts(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// evaluate is the pre-kernel EvaluateSubset.
func (o *oracleSweeps) evaluate(sources, dests []int) Ratios {
	var riskSum, distSum float64
	pairs := 0
	for _, i := range sources {
		var pr, pd float64
		pn := 0
		sMiles, sEntered := o.shortest(i)
		var js []int
		for _, j := range dests {
			if j != i {
				js = append(js, j)
			}
		}
		order, groups := o.byBucket(i, js)
		for _, b := range order {
			rMiles, rEntered := o.risky(b, i)
			for _, j := range groups[b] {
				alpha := o.e.Ctx.Alpha(i, j)
				rShortest := sMiles[j] + alpha*sEntered[j]
				rRR := rMiles[j] + alpha*rEntered[j]
				if math.IsInf(rShortest, 1) || math.IsInf(rRR, 1) || rShortest == 0 || sMiles[j] == 0 {
					continue
				}
				rrMilesJ := rMiles[j]
				if rRR > rShortest {
					rRR = rShortest
					rrMilesJ = sMiles[j]
				}
				pr += rRR / rShortest
				pd += rrMilesJ / sMiles[j]
				pn++
			}
		}
		riskSum += pr
		distSum += pd
		pairs += pn
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

// minCost prices j at its exact α on the bucket route, clamped to the
// shortest path's cost — TotalBitRisk's per-pair term.
func minCost(alpha, miles, entered, sMiles, sEntered float64) float64 {
	cost := miles + alpha*entered
	if s := sMiles + alpha*sEntered; s < cost {
		cost = s
	}
	return cost
}

// totalBitRisk is the pre-kernel TotalBitRisk.
func (o *oracleSweeps) totalBitRisk() float64 {
	n := o.e.N()
	total := 0.0
	for i := 0; i < n; i++ {
		sub := 0.0
		sMiles, sEntered := o.shortest(i)
		var js []int
		for j := i + 1; j < n; j++ {
			js = append(js, j)
		}
		order, groups := o.byBucket(i, js)
		for _, b := range order {
			miles, entered := o.risky(b, i)
			for _, j := range groups[b] {
				if math.IsInf(miles[j], 1) {
					continue
				}
				sub += minCost(o.e.Ctx.Alpha(i, j), miles[j], entered[j], sMiles[j], sEntered[j])
			}
		}
		total += sub
	}
	return total
}

// totalBitRiskSubset is the pre-kernel TotalBitRiskSubset.
func (o *oracleSweeps) totalBitRiskSubset(sources, dests []int) float64 {
	seen := map[[2]int]bool{}
	total := 0.0
	for _, i := range sources {
		sMiles, sEntered := o.shortest(i)
		var js []int
		for _, j := range dests {
			key := [2]int{min(i, j), max(i, j)}
			if j == i || seen[key] {
				continue
			}
			seen[key] = true
			js = append(js, j)
		}
		order, groups := o.byBucket(i, js)
		for _, b := range order {
			sort.Ints(groups[b])
			miles, entered := o.risky(b, i)
			for _, j := range groups[b] {
				if math.IsInf(miles[j], 1) {
					continue
				}
				total += minCost(o.e.Ctx.Alpha(i, j), miles[j], entered[j], sMiles[j], sEntered[j])
			}
		}
	}
	return total
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePair(got, want PairResult) bool {
	return reflect.DeepEqual(got.Path, want.Path) &&
		sameBits(got.BitRiskMiles, want.BitRiskMiles) && sameBits(got.Miles, want.Miles)
}

func sameRatios(got, want Ratios) bool {
	return got.Pairs == want.Pairs && sameBits(got.RiskReduction, want.RiskReduction) &&
		sameBits(got.DistanceIncrease, want.DistanceIncrease)
}

// checkPairs compares RiskRoutePair and ShortestPair with the oracle on the
// given ordered pairs, and Explain / ExplainShortest on every seventh.
func checkPairs(t *testing.T, label string, e *Engine, pairs [][2]int) {
	t.Helper()
	ctx := e.Ctx
	dist := ctx.Net.Graph()
	for k, p := range pairs {
		i, j := p[0], p[1]
		alpha := ctx.Alpha(i, j)
		wantRR := oraclePair(ctx, ctx.WeightedGraph(alpha), i, j)
		wantSP := oraclePair(ctx, dist, i, j)
		if got := e.RiskRoutePair(i, j); !samePair(got, wantRR) {
			t.Fatalf("%s: RiskRoutePair(%d,%d) = %+v, oracle %+v", label, i, j, got, wantRR)
		}
		if got := e.ShortestPair(i, j); !samePair(got, wantSP) {
			t.Fatalf("%s: ShortestPair(%d,%d) = %+v, oracle %+v", label, i, j, got, wantSP)
		}
		if k%7 != 0 {
			continue
		}
		if got, want := e.Explain(i, j), e.ExplainPathAlpha(wantRR.Path, i, j, alpha); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Explain(%d,%d) = %+v, oracle %+v", label, i, j, got, want)
		}
		if got, want := e.ExplainShortest(i, j), e.ExplainPath(wantSP.Path, i, j); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ExplainShortest(%d,%d) = %+v, oracle %+v", label, i, j, got, want)
		}
	}
}

// checkAggregates compares Evaluate, EvaluateSubset, TotalBitRisk and
// TotalBitRiskSubset with the oracle's sweeps over the bucket graphs.
func checkAggregates(t *testing.T, label string, e *Engine) {
	t.Helper()
	o := newOracleSweeps(e)
	n := e.N()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if got, want := e.Evaluate(), o.evaluate(all, all); !sameRatios(got, want) {
		t.Fatalf("%s: Evaluate = %+v, oracle %+v", label, got, want)
	}
	sources, dests := all[:n/3+1], all[n/4:]
	if got, want := e.EvaluateSubset(sources, dests), o.evaluate(sources, dests); !sameRatios(got, want) {
		t.Fatalf("%s: EvaluateSubset = %+v, oracle %+v", label, got, want)
	}
	if got, want := e.TotalBitRisk(), o.totalBitRisk(); !sameBits(got, want) {
		t.Fatalf("%s: TotalBitRisk = %v, oracle %v", label, got, want)
	}
	if got, want := e.TotalBitRiskSubset(sources, dests), o.totalBitRiskSubset(sources, dests); !sameBits(got, want) {
		t.Fatalf("%s: TotalBitRiskSubset = %v, oracle %v", label, got, want)
	}
}

// checkPlanning compares CandidateLinks and ScoreCandidates with the
// oracle: all-pairs tables over the materialized distance and bucket graphs.
func checkPlanning(t *testing.T, label string, e *Engine) {
	t.Helper()
	ctx, n := e.Ctx, e.N()
	dist := graph.NewAllPairsTable(ctx.Net.Graph())
	var wantLinks []topology.Link
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			direct := ctx.Net.LinkMiles(topology.Link{A: a, B: b})
			if !ctx.Net.HasLink(a, b) && direct < (1-paperRule)*dist.Dist[a][b] {
				wantLinks = append(wantLinks, topology.Link{A: a, B: b})
			}
		}
	}
	// The oracles search this materialization.
	if !reflect.DeepEqual(e.adj.Graph(0), ctx.Net.Graph()) {
		t.Fatalf("%s: adjacency's distance graph differs from Net.Graph", label)
	}
	cands := e.CandidateLinks()
	if !reflect.DeepEqual(cands, wantLinks) {
		t.Fatalf("%s: CandidateLinks = %v, oracle %v", label, cands, wantLinks)
	}
	tables := map[int]*graph.AllPairsTable{}
	for b := range e.buckets {
		tables[b] = graph.NewAllPairsTable(ctx.WeightedGraph(e.buckets[b]))
	}
	want := map[topology.Link]Candidate{}
	for _, c := range cands {
		total := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				b := e.bucketOf(ctx.Alpha(i, j))
				w := ctx.EdgeWeight(c.A, c.B, e.buckets[b])
				if d := tables[b].WithEdge(i, j, c.A, c.B, w); !math.IsInf(d, 1) {
					total += d
				}
			}
		}
		want[c] = Candidate{Link: c, Total: total}
	}
	for _, got := range e.ScoreCandidates(cands) {
		if w := want[got.Link]; !sameBits(got.Total, w.Total) {
			t.Fatalf("%s: ScoreCandidates %+v, oracle %+v", label, got, w)
		}
	}
}

// The protection callers (fast reroute, the forwarding table, the OSPF
// verification and outage simulation) route on masked views of the same
// kernel. Their oracles below are the pre-mask implementations, written on
// the materialized WeightedGraph and graph.Graph searches.

// oracleBackups is the pre-mask FastReroutePlan's detours: per failed hop,
// a network clone without every link joining the pair, its WeightedGraph,
// Graph.ShortestPath, and pricing through the clone's context.
func oracleBackups(ctx *risk.Context, primary []int, i, j int) []BackupRoute {
	var out []BackupRoute
	for x := 1; x < len(primary); x++ {
		failed := topology.Link{A: primary[x-1], B: primary[x]}
		fctx := *ctx
		fctx.Net = ctx.Net.Clone()
		fctx.Net.Links = nil
		for _, l := range ctx.Net.Links {
			if !(l.A == failed.A && l.B == failed.B) && !(l.A == failed.B && l.B == failed.A) {
				fctx.Net.Links = append(fctx.Net.Links, l)
			}
		}
		r := oraclePair(&fctx, fctx.WeightedGraph(ctx.Alpha(i, j)), i, j)
		out = append(out, BackupRoute{FailedLink: failed, Path: r.Path, BitRiskMiles: r.BitRiskMiles, Miles: r.Miles})
	}
	return out
}

// oracleMeanAlpha is α̅ = 2·mean(c_i).
func oracleMeanAlpha(ctx *risk.Context) float64 {
	sum := 0.0
	for _, f := range ctx.Fractions {
		sum += f
	}
	return 2 * sum / float64(len(ctx.Fractions))
}

// oracleForwarding is the pre-mask ForwardingTable: Graph.Dijkstra trees on
// the α̅-weighted graph from src and from each neighbour, the neighbours in
// the graph's adjacency order (src's links in link order), each one hop
// away at its cheapest parallel edge.
func oracleForwarding(ctx *risk.Context, src int) []ForwardingEntry {
	n := len(ctx.Net.PoPs)
	g := ctx.WeightedGraph(oracleMeanAlpha(ctx))
	srcTree := g.Dijkstra(src)
	var nbs []int
	trees := map[int]*graph.ShortestTree{}
	for _, l := range ctx.Net.Links {
		if v := l.A + l.B - src; (l.A == src || l.B == src) && trees[v] == nil {
			nbs = append(nbs, v)
			trees[v] = g.Dijkstra(v)
		}
	}
	out := []ForwardingEntry{}
	for d := 0; d < n; d++ {
		if d == src {
			continue
		}
		entry := ForwardingEntry{Dest: d, NextHop: -1, Backup: -1}
		if path := srcTree.PathTo(d); path != nil {
			entry.NextHop = path[1]
			best := math.Inf(1)
			for _, v := range nbs {
				dv := trees[v].Dist
				if v == entry.NextHop || math.IsInf(dv[d], 1) || !(dv[d] < dv[src]+srcTree.Dist[d]) {
					continue
				}
				if cost := g.PathWeight([]int{src, v}) + dv[d]; cost < best {
					best, entry.Backup = cost, v
				}
			}
		}
		out = append(out, entry)
	}
	return out
}

// oracleVerifyOSPF is the pre-mask VerifyOSPFExport: a Graph of the
// quantized metrics and the export-α weighted graph, both searched with
// Graph.ShortestPath over the same deterministic pair sample. ok is false
// when no pair was verifiable.
func oracleVerifyOSPF(ctx *risk.Context, export *OSPFExport, tolerance float64, sampleCap int) (frac float64, ok bool) {
	n := len(ctx.Net.PoPs)
	ospf := graph.New(n)
	for _, w := range export.Weights {
		ospf.AddEdge(w.Link.A, w.Link.B, float64(w.Weight))
	}
	exact := ctx.WeightedGraph(export.Alpha)
	stride := 1
	if total := n * (n - 1) / 2; total > sampleCap {
		stride = total/sampleCap + 1
	}
	mismatches, checked, k := 0, 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k++
			if (k-1)%stride != 0 {
				continue
			}
			oPath, _ := ospf.ShortestPath(i, j)
			ePath, eCost := exact.ShortestPath(i, j)
			if oPath == nil || ePath == nil {
				continue
			}
			checked++
			if eCost > 0 && (exact.PathWeight(oPath)-eCost)/eCost > tolerance {
				mismatches++
			}
		}
	}
	return float64(mismatches) / float64(checked), checked > 0
}

// oracleOutage is the pre-mask SimulateOutage: Graph.Dijkstra on the
// intact distance graph and on a graph.New of the surviving links, and the
// giant component from Graph.Components, the lowest-node one on ties.
func oracleOutage(ctx *risk.Context, failed []int) OutageImpact {
	n := len(ctx.Net.PoPs)
	down := make([]bool, n)
	for _, f := range failed {
		down[f] = true
	}
	survivors := graph.New(n)
	for _, l := range ctx.Net.Links {
		if !down[l.A] && !down[l.B] {
			survivors.AddEdge(l.A, l.B, ctx.Net.LinkMiles(l))
		}
	}
	intact := ctx.Net.Graph()
	impact := OutageImpact{FailedPoPs: len(failed), SurvivingPoPs: n - len(failed)}
	var detourSum float64
	for i := 0; i < n; i++ {
		if down[i] {
			continue
		}
		before, after := intact.Dijkstra(i), survivors.Dijkstra(i)
		for j := i + 1; j < n; j++ {
			if down[j] {
				continue
			}
			impact.TotalPairs++
			switch {
			case math.IsInf(after.Dist[j], 1):
				impact.DisconnectedPairs++
			case after.Dist[j] > before.Dist[j]+1e-9:
				impact.ReroutedPairs++
				detourSum += after.Dist[j] - before.Dist[j]
			}
		}
	}
	if impact.ReroutedPairs > 0 {
		impact.MeanDetourMiles = detourSum / float64(impact.ReroutedPairs)
	}
	var giant []int
	for _, comp := range survivors.Components() {
		if !down[comp[0]] && len(comp) > len(giant) {
			giant = comp
		}
	}
	inGiant := make([]bool, n)
	for _, v := range giant {
		inGiant[v] = true
	}
	for i := 0; i < n; i++ {
		if down[i] || !inGiant[i] {
			impact.StrandedPopulation += ctx.Fractions[i]
		}
	}
	return impact
}

func sameBackups(got, want []BackupRoute) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range got {
		if got[k].FailedLink != want[k].FailedLink ||
			!samePair(PairResult{got[k].Path, got[k].BitRiskMiles, got[k].Miles},
				PairResult{want[k].Path, want[k].BitRiskMiles, want[k].Miles}) {
			return false
		}
	}
	return true
}

func sameOutage(got, want OutageImpact) bool {
	return got.FailedPoPs == want.FailedPoPs && got.SurvivingPoPs == want.SurvivingPoPs &&
		got.TotalPairs == want.TotalPairs && got.DisconnectedPairs == want.DisconnectedPairs &&
		got.ReroutedPairs == want.ReroutedPairs && sameBits(got.MeanDetourMiles, want.MeanDetourMiles) &&
		sameBits(got.StrandedPopulation, want.StrandedPopulation)
}

// protectionCase sizes checkProtection's work on one engine.
type protectionCase struct {
	pairs   [][2]int // fast-reroute pairs
	sources []int    // forwarding-table sources
	outages [][]int  // failed-PoP sets
	ospfCap int      // VerifyOSPFExport's pair sample
}

// newProtectionCase draws a seeded case: up to npairs distinct ordered
// pairs, nsrc sources, and outage sets of no PoP, one PoP, a quarter and
// half of the PoPs.
func newProtectionCase(n int, seed uint64, npairs, nsrc, ospfCap int) protectionCase {
	rng := stats.NewRNG(seed)
	pc := protectionCase{ospfCap: ospfCap}
	for k := 0; k < npairs; k++ {
		if i, j := rng.Intn(n), rng.Intn(n); i != j {
			pc.pairs = append(pc.pairs, [2]int{i, j})
		}
	}
	for k := 0; k < nsrc; k++ {
		pc.sources = append(pc.sources, rng.Intn(n))
	}
	for _, size := range []int{0, 1, n / 4, n / 2} {
		pc.outages = append(pc.outages, rng.Perm(n)[:size])
	}
	return pc
}

// checkProtection compares FastReroutePlan, ForwardingTable,
// VerifyOSPFExport (at two tolerances) and SimulateOutage with their
// pre-mask oracles: paths equal and every figure Float64bits-equal.
func checkProtection(t *testing.T, label string, e *Engine, pc protectionCase) {
	t.Helper()
	ctx := e.Ctx
	for _, p := range pc.pairs {
		i, j := p[0], p[1]
		primary, backups, err := e.FastReroutePlan(i, j)
		want := oraclePair(ctx, ctx.WeightedGraph(ctx.Alpha(i, j)), i, j)
		if (err != nil) != (want.Path == nil) || !samePair(primary, want) {
			t.Fatalf("%s: FastReroutePlan(%d,%d) primary %+v (err %v), oracle %+v", label, i, j, primary, err, want)
		}
		if wantB := oracleBackups(ctx, want.Path, i, j); !sameBackups(backups, wantB) {
			t.Fatalf("%s: FastReroutePlan(%d,%d) backups %+v, oracle %+v", label, i, j, backups, wantB)
		}
	}
	for _, src := range pc.sources {
		got, err := e.ForwardingTable(src)
		if want := oracleForwarding(ctx, src); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ForwardingTable(%d) = %v (err %v), oracle %v", label, src, got, err, want)
		}
	}
	export, err := e.ExportOSPFWeights()
	if err != nil {
		t.Fatalf("%s: ExportOSPFWeights: %v", label, err)
	}
	if !sameBits(export.Alpha, oracleMeanAlpha(ctx)) {
		t.Fatalf("%s: export α̅ = %v, oracle %v", label, export.Alpha, oracleMeanAlpha(ctx))
	}
	for _, tol := range []float64{0.01, 1e-4} {
		got, err := e.VerifyOSPFExport(export, tol, pc.ospfCap)
		want, ok := oracleVerifyOSPF(ctx, export, tol, pc.ospfCap)
		if (err == nil) != ok || (ok && !sameBits(got, want)) {
			t.Fatalf("%s: VerifyOSPFExport(tol %v) = %v (err %v), oracle %v", label, tol, got, err, want)
		}
	}
	for _, failed := range pc.outages {
		got, err := e.SimulateOutage(failed)
		if want := oracleOutage(ctx, failed); err != nil || !sameOutage(got, want) {
			t.Fatalf("%s: SimulateOutage(%v) = %+v (err %v), oracle %+v", label, failed, got, err, want)
		}
	}
}

// checkReprice requires an engine from Reprice to equal a fresh New engine
// over the same context, field by field.
func checkReprice(t *testing.T, label string, repriced *Engine, ctx *risk.Context) {
	t.Helper()
	fresh := mustEngine(t, ctx, Options{})
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"miles", repriced.miles, fresh.miles},
		{"adjacency", repriced.adj, fresh.adj},
		{"rho", repriced.rho, fresh.rho},
		{"span", repriced.span, fresh.span},
		{"buckets", repriced.buckets, fresh.buckets},
		{"alpha range", [2]float64{repriced.alphaLo, repriced.alphaHi}, [2]float64{fresh.alphaLo, fresh.alphaHi}},
		{"log buckets", repriced.logBuckets, fresh.logBuckets},
		{"components", [2]int{repriced.components, repriced.unreachable}, [2]int{fresh.components, fresh.unreachable}},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: repriced %s differs from a fresh engine's", label, f.name)
		}
	}
}

func allPairs(n int) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// kernelContexts derives the context variants the differential tests sweep
// from one base context: the forecast layer off and on, the default λ_h and
// three custom ones, span risk off and on. Each variant covers a different
// combination, and each setting appears in at least one of them.
func kernelContexts(base *risk.Context, fc, span []float64) []*risk.Context {
	variants := []struct {
		lambdaH  float64
		forecast bool
		span     bool
	}{
		{1e5, false, false},
		{1e4, true, true},
		{3e5, false, true},
		{1e6, true, false},
	}
	out := make([]*risk.Context, len(variants))
	for k, v := range variants {
		ctx := &risk.Context{
			Net:       base.Net,
			Hist:      base.Hist,
			Fractions: base.Fractions,
			Impact:    base.Impact,
			Params:    risk.Params{LambdaH: v.lambdaH, LambdaF: 1e3},
		}
		if v.forecast {
			ctx.Forecast = fc
		}
		if v.span {
			ctx.SetLinkHist(span)
		}
		out[k] = ctx
	}
	return out
}

// builtinContext gives a built-in network seeded risk and population: a
// skewed historical risk per PoP, population shares, per-span risk, and
// the forecast layer of one Hurricane Sandy advisory.
func builtinContext(t *testing.T, net *topology.Network, adv *forecast.Advisory, seed uint64) (*risk.Context, []float64, []float64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	n := len(net.PoPs)
	hist := make([]float64, n)
	fractions := make([]float64, n)
	sum := 0.0
	for i := range hist {
		u := rng.Float64()
		hist[i] = 0.02 * u * u * u
		fractions[i] = 0.05 + rng.Float64()
		sum += fractions[i]
	}
	for i := range fractions {
		fractions[i] /= sum
	}
	span := make([]float64, len(net.Links))
	for i := range span {
		span[i] = 0.005 * rng.Float64()
	}
	fc := forecast.DefaultRiskModel().PoPRisks(adv, net)
	return &risk.Context{Net: net, Hist: hist, Fractions: fractions}, fc, span
}

// sandyAdvisory returns the Hurricane Sandy advisory whose wind field
// covers the most Level3 PoPs.
func sandyAdvisory(t *testing.T) *forecast.Advisory {
	t.Helper()
	replay, err := forecast.LoadReplay(&datasets.Sandy)
	if err != nil {
		t.Fatal(err)
	}
	level3 := datasets.NetworkByName("Level3")
	var best *forecast.Advisory
	bestHit := -1
	for _, adv := range replay.Advisories {
		hit := 0
		for _, f := range forecast.DefaultRiskModel().PoPRisks(adv, level3) {
			if f > 0 {
				hit++
			}
		}
		if hit > bestHit {
			best, bestHit = adv, hit
		}
	}
	return best
}

// TestKernelMatchesOracleBuiltins covers every ordered pair of the 22
// non-Level3 built-in networks and a seeded sample of Level3 pairs, under
// four context variants each, and a seeded protection case per network
// (smaller on Level3) under every variant. The all-pairs aggregates are
// checked on the non-Level3 networks and the planning answers on those of
// ≤25 PoPs, each under two variants and one variant respectively.
func TestKernelMatchesOracleBuiltins(t *testing.T) {
	adv := sandyAdvisory(t)
	for ni, net := range datasets.BuildNetworks() {
		base, fc, span := builtinContext(t, net, adv, uint64(100+ni))
		ctxs := kernelContexts(base, fc, span)
		first := mustEngine(t, ctxs[0], Options{})
		pairs := allPairs(len(net.PoPs))
		pc := newProtectionCase(len(net.PoPs), uint64(ni), 8, 2, 300)
		if net.Name == "Level3" {
			rng := stats.NewRNG(7)
			sample := make([][2]int, 1000)
			for k := range sample {
				sample[k] = pairs[rng.Intn(len(pairs))]
			}
			pairs = sample
			pc = newProtectionCase(len(net.PoPs), uint64(ni), 3, 1, 100)
		}
		for k, ctx := range ctxs {
			label := net.Name + " variant " + string(rune('A'+k))
			e := first
			if k > 0 {
				var err error
				if e, err = first.Reprice(ctx, Options{}); err != nil {
					t.Fatalf("%s: Reprice: %v", label, err)
				}
				checkReprice(t, label, e, ctx)
			}
			checkPairs(t, label, e, pairs)
			checkProtection(t, label, e, pc)
			if net.Name != "Level3" && k%2 == ni%2 {
				checkAggregates(t, label, e)
			}
			if len(net.PoPs) <= 25 && k == ni%4 {
				checkPlanning(t, label, e)
			}
		}
	}
}

// mirrorNet is a ladder mirrored about the equator. PoPs on the equator
// link only north and south, so every route between two of them has a
// mirror image with bitwise-equal miles and risk: exact ties, which only
// adjacency order breaks. It returns mirrored forecast and span vectors
// for kernelContexts.
func mirrorNet() (*risk.Context, []float64, []float64) {
	const cols = 5
	net := &topology.Network{Name: "Mirror", Tier: topology.Regional}
	idx := func(r, c int) int { return (r+1)*cols + c }
	var hist, fc, fractions []float64
	for r := -1; r <= 1; r++ {
		for c := 0; c < cols; c++ {
			net.PoPs = append(net.PoPs, topology.PoP{
				Name:     fmt.Sprintf("M%d%d", r+1, c),
				Location: geo.Point{Lat: float64(r), Lon: float64(c)},
			})
			away := float64(r * r) // 0 on the equator, 1 north and south
			hist = append(hist, 0.001*float64(c*3%4)*(1+away))
			fc = append(fc, 10*float64(c%2)*away)
			fractions = append(fractions, float64(1+c)/45)
		}
	}
	var span []float64
	for c := 0; c < cols; c++ {
		for _, r := range []int{-1, 1} {
			net.Links = append(net.Links, topology.Link{A: idx(0, c), B: idx(r, c)})
			span = append(span, 0.01*float64(c))
			if c+1 < cols {
				net.Links = append(net.Links, topology.Link{A: idx(r, c), B: idx(r, c+1)})
				span = append(span, 0.02*float64(c%2))
			}
		}
	}
	return &risk.Context{Net: net, Hist: hist, Fractions: fractions}, fc, span
}

// fragmentedGrid is gridNet(3, 4) with every link out of column 0 cut: a
// 3-PoP component and a 9-PoP one.
func fragmentedGrid(seed uint64) *risk.Context {
	ctx := gridNet(3, 4, seed)
	var kept []topology.Link
	for _, l := range ctx.Net.Links {
		if (l.A%4 == 0) == (l.B%4 == 0) {
			kept = append(kept, l)
		}
	}
	ctx.Net.Links = kept
	return ctx
}

// parallelGrid is gridNet(3, 4) with every third link doubled, the copy
// reversed: parallel links, which a link failure must take down together.
func parallelGrid(seed uint64) *risk.Context {
	ctx := gridNet(3, 4, seed)
	for li, l := range ctx.Net.Links {
		if li%3 == 0 {
			ctx.Net.Links = append(ctx.Net.Links, topology.Link{A: l.B, B: l.A})
		}
	}
	return ctx
}

// TestKernelMatchesOracleFixtures covers every pair, aggregate and
// planning answer, and a seeded protection case, on the gridNet lattice, on
// a fragmented lattice, on a lattice with parallel links, on a lattice with
// a skewed Impact override (log-spaced buckets) and on the mirrored
// ladder's exact ties, under all four context variants.
func TestKernelMatchesOracleFixtures(t *testing.T) {
	skewed := gridNet(4, 5, 31)
	skewed.Impact = func(i, j int) float64 {
		return 1e-4 * math.Exp(float64((i*7+j*7)%11))
	}
	type fixture struct {
		base     *risk.Context
		fc, span []float64
	}
	fixtures := map[string]fixture{}
	for name, base := range map[string]*risk.Context{
		"grid":       gridNet(4, 5, 23),
		"fragmented": fragmentedGrid(29),
		"parallel":   parallelGrid(37),
		"impact":     skewed,
	} {
		rng := stats.NewRNG(5)
		fc := make([]float64, len(base.Net.PoPs))
		for i := range fc {
			fc[i] = float64(rng.Intn(3)) * 0.05
		}
		span := make([]float64, len(base.Net.Links))
		for i := range span {
			span[i] = 0.2 * rng.Float64()
		}
		// gridNet's risk suits λ_h = 2e3; scale it down so risk and miles
		// stay in competition at the variants' λ_h.
		for i := range base.Hist {
			base.Hist[i] *= 0.02
		}
		fixtures[name] = fixture{base, fc, span}
	}
	mirror, fc, span := mirrorNet()
	fixtures["mirror"] = fixture{mirror, fc, span}

	// The mirror's equator PoPs 0 and 2 (indices 5 and 7) route north or
	// south at bitwise-equal cost, with every risk layer on.
	tied := kernelContexts(mirror, fc, span)[1]
	north, south := []int{5, 10, 11, 12, 7}, []int{5, 0, 1, 2, 7}
	if !sameBits(tied.PathCost(north, 5, 7), tied.PathCost(south, 5, 7)) {
		t.Fatal("mirror fixture does not tie")
	}

	for name, f := range fixtures {
		n := len(f.base.Net.PoPs)
		ctxs := kernelContexts(f.base, f.fc, f.span)
		first := mustEngine(t, ctxs[0], Options{})
		for k, ctx := range ctxs {
			label := name + " variant " + string(rune('A'+k))
			e := first
			if k > 0 {
				var err error
				if e, err = first.Reprice(ctx, Options{}); err != nil {
					t.Fatalf("%s: Reprice: %v", label, err)
				}
				checkReprice(t, label, e, ctx)
			}
			checkPairs(t, label, e, allPairs(n))
			checkProtection(t, label, e, newProtectionCase(n, uint64(k), 12, 3, 60))
			checkAggregates(t, label, e)
			checkPlanning(t, label, e)
		}
	}
}

// TestWithoutLinksMatchesPrunedNetwork holds an engine with failed links
// masked out to a fresh engine over the network without them: every
// pair's routes, the aggregates, the component census, the candidate links
// and the protection answers, before and after a Reprice of the masked
// engine.
func TestWithoutLinksMatchesPrunedNetwork(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		ctx := gridNet(4, 5, 40+seed)
		pruned := *ctx
		pruned.Net = &topology.Network{Name: ctx.Net.Name, Tier: ctx.Net.Tier, PoPs: ctx.Net.PoPs}
		rng := stats.NewRNG(seed)
		var failed []int
		for li, l := range ctx.Net.Links {
			if rng.Intn(3) == 0 {
				failed = append(failed, li)
			} else {
				pruned.Net.Links = append(pruned.Net.Links, l)
			}
		}
		masked, err := mustEngine(t, ctx, Options{}).WithoutLinks(failed)
		if err != nil {
			t.Fatal(err)
		}
		fresh := mustEngine(t, &pruned, Options{})
		label := fmt.Sprintf("seed %d", seed)
		for _, lambdaH := range []float64{ctx.Params.LambdaH, 5e4} {
			if lambdaH != ctx.Params.LambdaH {
				rctx, rpruned := *ctx, pruned
				rctx.Params.LambdaH, rpruned.Params.LambdaH = lambdaH, lambdaH
				if masked, err = masked.Reprice(&rctx, Options{}); err != nil {
					t.Fatal(err)
				}
				fresh = mustEngine(t, &rpruned, Options{})
				label += " repriced"
			}
			if masked.Components() != fresh.Components() || masked.UnreachablePairs() != fresh.UnreachablePairs() {
				t.Fatalf("%s: census %d/%d, pruned network %d/%d", label,
					masked.Components(), masked.UnreachablePairs(), fresh.Components(), fresh.UnreachablePairs())
			}
			for _, p := range allPairs(masked.N()) {
				if got, want := masked.RiskRoutePair(p[0], p[1]), fresh.RiskRoutePair(p[0], p[1]); !samePair(got, want) {
					t.Fatalf("%s: RiskRoutePair%v = %+v, pruned network %+v", label, p, got, want)
				}
				if got, want := masked.ShortestPair(p[0], p[1]), fresh.ShortestPair(p[0], p[1]); !samePair(got, want) {
					t.Fatalf("%s: ShortestPair%v = %+v, pruned network %+v", label, p, got, want)
				}
			}
			if !sameRatios(masked.Evaluate(), fresh.Evaluate()) || !sameBits(masked.TotalBitRisk(), fresh.TotalBitRisk()) {
				t.Fatalf("%s: aggregates differ from the pruned network's", label)
			}
			if !reflect.DeepEqual(masked.CandidateLinks(), fresh.CandidateLinks()) {
				t.Fatalf("%s: CandidateLinks differ from the pruned network's", label)
			}
			checkMaskedProtection(t, label, masked, fresh)
		}
	}
	e := mustEngine(t, gridNet(3, 3, 1), Options{})
	for _, li := range []int{-1, len(e.Ctx.Net.Links)} {
		if _, err := e.WithoutLinks([]int{0, li}); err == nil {
			t.Errorf("failed link %d accepted", li)
		}
	}
}

// checkMaskedProtection requires the protection answers of an engine with
// failed links masked out to equal those of an engine over the pruned
// network.
func checkMaskedProtection(t *testing.T, label string, masked, fresh *Engine) {
	t.Helper()
	n := masked.N()
	for i := 0; i < n; i += 3 {
		j := n - 1 - i
		mp, mb, merr := masked.FastReroutePlan(i, j)
		fp, fb, ferr := fresh.FastReroutePlan(i, j)
		if (merr == nil) != (ferr == nil) || !samePair(mp, fp) || !sameBackups(mb, fb) {
			t.Fatalf("%s: FastReroutePlan(%d,%d) differs from the pruned network's", label, i, j)
		}
		md, fd := masked.DiversePaths(i, j, 4), fresh.DiversePaths(i, j, 4)
		if len(md) != len(fd) {
			t.Fatalf("%s: DiversePaths(%d,%d) found %d paths, pruned network %d", label, i, j, len(md), len(fd))
		}
		for k := range md {
			if !samePair(md[k], fd[k]) {
				t.Fatalf("%s: DiversePaths(%d,%d)[%d] differs from the pruned network's", label, i, j, k)
			}
		}
		ms, merr := masked.SLAConstrainedPair(i, j, 0.3, 8)
		fs, ferr := fresh.SLAConstrainedPair(i, j, 0.3, 8)
		if (merr == nil) != (ferr == nil) || !samePair(ms, fs) {
			t.Fatalf("%s: SLAConstrainedPair(%d,%d) differs from the pruned network's", label, i, j)
		}
		mt, merr := masked.ForwardingTable(i)
		ft, ferr := fresh.ForwardingTable(i)
		if merr != nil || ferr != nil || !reflect.DeepEqual(mt, ft) {
			t.Fatalf("%s: ForwardingTable(%d) differs from the pruned network's", label, i)
		}
	}
	mo, merr := masked.SimulateOutage([]int{1, n / 2})
	fo, ferr := fresh.SimulateOutage([]int{1, n / 2})
	if merr != nil || ferr != nil || !sameOutage(mo, fo) {
		t.Fatalf("%s: SimulateOutage = %+v, pruned network %+v", label, mo, fo)
	}
}

func TestRepriceRejectsForeignNetwork(t *testing.T) {
	e := mustEngine(t, gridNet(3, 3, 1), Options{})
	other := gridNet(3, 3, 1) // equal contents, different network value
	if _, err := e.Reprice(other, Options{}); err == nil {
		t.Error("Reprice accepted a context over another network")
	}
}

func TestNewRejectsInvalidEdgeRisk(t *testing.T) {
	ctx := gridNet(3, 3, 1)
	ctx.Forecast = make([]float64, len(ctx.Hist))
	ctx.Forecast[4] = -1e6
	if _, err := New(ctx, Options{}); err == nil {
		t.Error("negative edge risk accepted")
	}
}

// TestSharedEngineConcurrent calls RiskRoutePair, ShortestPair, Explain and
// Evaluate from 8 goroutines at once — on one shared engine and on engines
// the goroutines derive from it with Reprice — and requires every answer to
// equal the sequential answer of a freshly built engine. Run under -race it
// also shows the shared adjacency and the pooled search scratch are never
// written concurrently.
func TestSharedEngineConcurrent(t *testing.T) {
	base := explainCtx(3)
	shared := mustEngine(t, base, Options{})
	lambdas := []float64{base.Params.LambdaH, 1e2, 5e3, 2e4}
	ctxs := make([]*risk.Context, len(lambdas))
	for k, lh := range lambdas {
		ctx := *base
		ctx.Params.LambdaH = lh
		ctxs[k] = &ctx
	}
	ctxs[0] = base

	type answers struct {
		rr, sp []PairResult
		ex     []Explanation
		eval   Ratios
	}
	pairs := allPairs(shared.N())
	want := make([]answers, len(ctxs))
	for k, ctx := range ctxs {
		e := mustEngine(t, ctx, Options{Workers: 1})
		for _, p := range pairs {
			want[k].rr = append(want[k].rr, e.RiskRoutePair(p[0], p[1]))
			want[k].sp = append(want[k].sp, e.ShortestPair(p[0], p[1]))
			want[k].ex = append(want[k].ex, e.Explain(p[0], p[1]))
		}
		want[k].eval = e.Evaluate()
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k, e := 0, shared
			if g%2 == 1 {
				k = 1 + g/2%3
				var err error
				if e, err = shared.Reprice(ctxs[k], Options{}); err != nil {
					t.Errorf("goroutine %d: Reprice: %v", g, err)
					return
				}
			}
			for x := range pairs {
				y := (x + g*17) % len(pairs) // stagger the goroutines' starting pairs
				p := pairs[y]
				if got := e.RiskRoutePair(p[0], p[1]); !samePair(got, want[k].rr[y]) {
					t.Errorf("goroutine %d: RiskRoutePair%v = %+v, sequential %+v", g, p, got, want[k].rr[y])
					return
				}
				if got := e.ShortestPair(p[0], p[1]); !samePair(got, want[k].sp[y]) {
					t.Errorf("goroutine %d: ShortestPair%v = %+v, sequential %+v", g, p, got, want[k].sp[y])
					return
				}
				if got := e.Explain(p[0], p[1]); !reflect.DeepEqual(got, want[k].ex[y]) {
					t.Errorf("goroutine %d: Explain%v differs from the sequential answer", g, p)
					return
				}
			}
			if got := e.Evaluate(); !sameRatios(got, want[k].eval) {
				t.Errorf("goroutine %d: Evaluate = %+v, sequential %+v", g, got, want[k].eval)
			}
		}(g)
	}
	wg.Wait()
}
