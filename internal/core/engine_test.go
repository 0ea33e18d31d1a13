package core

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"slices"
	"testing"

	"riskroute/internal/geo"
	"riskroute/internal/obs"
	"riskroute/internal/risk"
	"riskroute/internal/stats"
	"riskroute/internal/topology"
)

// gridNet builds a rows×cols lattice network over the central US with
// deterministic pseudo-random risk and population. Lattices have rich path
// diversity, which exercises the risk-averse routing.
func gridNet(rows, cols int, seed uint64) *risk.Context {
	rng := stats.NewRNG(seed)
	n := &topology.Network{Name: "Grid", Tier: topology.Tier1}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n.PoPs = append(n.PoPs, topology.PoP{
				Name:     "P" + string(rune('A'+r)) + string(rune('A'+c)),
				Location: geo.Point{Lat: 32 + float64(r)*1.5, Lon: -100 + float64(c)*1.8},
			})
		}
	}
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				n.Links = append(n.Links, topology.Link{A: idx(r, c), B: idx(r, c+1)})
			}
			if r+1 < rows {
				n.Links = append(n.Links, topology.Link{A: idx(r, c), B: idx(r+1, c)})
			}
		}
	}
	hist := make([]float64, rows*cols)
	fractions := make([]float64, rows*cols)
	fSum := 0.0
	for i := range hist {
		hist[i] = rng.Float64() * 0.5
		fractions[i] = 0.1 + rng.Float64()
		fSum += fractions[i]
	}
	for i := range fractions {
		fractions[i] /= fSum
	}
	return &risk.Context{
		Net:       n,
		Hist:      hist,
		Fractions: fractions,
		Params:    risk.Params{LambdaH: 2e3, LambdaF: 1e3},
	}
}

func mustEngine(t *testing.T, ctx *risk.Context, opts Options) *Engine {
	t.Helper()
	e, err := New(ctx, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	tiny := &risk.Context{
		Net:  &topology.Network{Name: "One", PoPs: []topology.PoP{{Name: "A"}}},
		Hist: []float64{0}, Fractions: []float64{1},
	}
	if _, err := New(tiny, Options{}); err == nil {
		t.Error("single-PoP network accepted")
	}
	// A negative population fraction makes some α_ij negative, and a search
	// over negative edge weights never settles; a NaN or infinite fraction or
	// impact prices every pair NaN or unreachable.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		apply func(ctx *risk.Context)
	}{
		{"misaligned hist", func(ctx *risk.Context) { ctx.Hist = ctx.Hist[:2] }},
		{"negative fraction", func(ctx *risk.Context) { ctx.Fractions[0] = -0.9 }},
		{"NaN fraction", func(ctx *risk.Context) { ctx.Fractions[4] = nan }},
		{"+Inf fraction", func(ctx *risk.Context) { ctx.Fractions[8] = inf }},
		{"NaN hist", func(ctx *risk.Context) { ctx.Hist[2] = nan }},
		{"+Inf hist", func(ctx *risk.Context) { ctx.Hist[2] = inf }},
		{"negative hist", func(ctx *risk.Context) { ctx.Hist[2] = -1 }},
		{"NaN impact", func(ctx *risk.Context) {
			ctx.Impact = func(i, j int) float64 { return nan }
		}},
		{"+Inf impact", func(ctx *risk.Context) {
			ctx.Impact = func(i, j int) float64 {
				if i == 1 && j == 5 {
					return inf
				}
				return ctx.Fractions[i] + ctx.Fractions[j]
			}
		}},
	} {
		ctx := gridNet(3, 3, 5)
		tc.apply(ctx)
		if _, err := New(ctx, Options{}); err == nil {
			t.Errorf("%s: engine built", tc.name)
		}
	}
}

func TestRiskRoutePairBeatsShortestInBitRisk(t *testing.T) {
	ctx := gridNet(4, 5, 7)
	e := mustEngine(t, ctx, Options{})
	for i := 0; i < e.N(); i += 3 {
		for j := 1; j < e.N(); j += 4 {
			if i == j {
				continue
			}
			rr := e.RiskRoutePair(i, j)
			sp := e.ShortestPair(i, j)
			if rr.BitRiskMiles > sp.BitRiskMiles+1e-6 {
				t.Errorf("pair (%d,%d): RiskRoute bit-risk %v > shortest %v",
					i, j, rr.BitRiskMiles, sp.BitRiskMiles)
			}
			if rr.Miles < sp.Miles-1e-6 {
				t.Errorf("pair (%d,%d): RiskRoute miles %v < shortest-path miles %v",
					i, j, rr.Miles, sp.Miles)
			}
			if rr.Path[0] != i || rr.Path[len(rr.Path)-1] != j {
				t.Errorf("pair (%d,%d): path endpoints %v", i, j, rr.Path)
			}
		}
	}
}

func TestPairResultConsistency(t *testing.T) {
	ctx := gridNet(3, 4, 11)
	e := mustEngine(t, ctx, Options{})
	rr := e.RiskRoutePair(0, 11)
	if got := ctx.PathCost(rr.Path, 0, 11); math.Abs(got-rr.BitRiskMiles) > 1e-9 {
		t.Errorf("BitRiskMiles %v != PathCost %v", rr.BitRiskMiles, got)
	}
	if got := ctx.PathMiles(rr.Path); math.Abs(got-rr.Miles) > 1e-9 {
		t.Errorf("Miles %v != PathMiles %v", rr.Miles, got)
	}
}

func TestEvaluateRatiosRanges(t *testing.T) {
	ctx := gridNet(4, 4, 3)
	e := mustEngine(t, ctx, Options{})
	r := e.Evaluate()
	if r.Pairs != 16*15 {
		t.Errorf("Pairs = %d, want %d", r.Pairs, 16*15)
	}
	if r.RiskReduction < 0 || r.RiskReduction >= 1 {
		t.Errorf("RiskReduction = %v, want [0, 1)", r.RiskReduction)
	}
	if r.DistanceIncrease < -1e-9 {
		t.Errorf("DistanceIncrease = %v, want >= 0", r.DistanceIncrease)
	}
}

func TestEvaluateMatchesExact(t *testing.T) {
	ctx := gridNet(3, 4, 5)
	// Plenty of buckets: quantized should track exact closely.
	quant := mustEngine(t, ctx, Options{AlphaBuckets: 64}).Evaluate()
	exact := mustEngine(t, ctx, Options{}).EvaluateExact()
	if math.Abs(quant.RiskReduction-exact.RiskReduction) > 0.02 {
		t.Errorf("quantized rr %v vs exact %v", quant.RiskReduction, exact.RiskReduction)
	}
	if math.Abs(quant.DistanceIncrease-exact.DistanceIncrease) > 0.02 {
		t.Errorf("quantized dr %v vs exact %v", quant.DistanceIncrease, exact.DistanceIncrease)
	}
	// Exact never reports less reduction than quantized can achieve, up to
	// floating noise: the exact-α path is optimal per pair.
	if quant.RiskReduction > exact.RiskReduction+1e-9 {
		t.Errorf("quantized rr %v exceeds exact %v", quant.RiskReduction, exact.RiskReduction)
	}
}

func TestLambdaMonotonicity(t *testing.T) {
	// Larger λ_h must not decrease the risk-reduction ratio or the distance
	// inflation — Table 2's headline trend.
	base := gridNet(4, 4, 9)
	var prevRR, prevDR float64 = -1, -1
	for _, lh := range []float64{0, 1e3, 1e4, 1e5} {
		ctx := *base
		ctx.Params = risk.Params{LambdaH: lh}
		r := mustEngine(t, &ctx, Options{AlphaBuckets: 32}).Evaluate()
		if r.RiskReduction < prevRR-1e-6 {
			t.Errorf("λ_h=%v: rr %v dropped below %v", lh, r.RiskReduction, prevRR)
		}
		if r.DistanceIncrease < prevDR-1e-6 {
			t.Errorf("λ_h=%v: dr %v dropped below %v", lh, r.DistanceIncrease, prevDR)
		}
		prevRR, prevDR = r.RiskReduction, r.DistanceIncrease
	}
}

func TestZeroLambdaMeansNoChange(t *testing.T) {
	ctx := gridNet(3, 3, 13)
	ctx.Params = risk.Params{}
	r := mustEngine(t, ctx, Options{}).Evaluate()
	if math.Abs(r.RiskReduction) > 1e-9 || math.Abs(r.DistanceIncrease) > 1e-9 {
		t.Errorf("λ=0 should give zero ratios, got %+v", r)
	}
}

func TestEvaluateSubset(t *testing.T) {
	ctx := gridNet(3, 4, 17)
	e := mustEngine(t, ctx, Options{})
	r := e.EvaluateSubset([]int{0, 1}, []int{5, 6, 7})
	if r.Pairs != 6 {
		t.Errorf("subset Pairs = %d, want 6", r.Pairs)
	}
	full := e.Evaluate()
	if full.Pairs <= r.Pairs {
		t.Error("full evaluation should cover more pairs")
	}
}

func TestTotalBitRiskDecreasesWithLinks(t *testing.T) {
	ctx := gridNet(3, 4, 19)
	e := mustEngine(t, ctx, Options{})
	before := e.TotalBitRisk()

	// Add a diagonal shortcut and re-evaluate.
	net2 := ctx.Net.Clone()
	if err := net2.AddLink(0, 11); err != nil {
		t.Fatal(err)
	}
	ctx2 := *ctx
	ctx2.Net = net2
	e2 := mustEngine(t, &ctx2, Options{})
	after := e2.TotalBitRisk()
	if after > before+1e-9 {
		t.Errorf("adding a link increased total bit-risk: %v -> %v", before, after)
	}
	if after >= before {
		t.Errorf("diagonal shortcut should strictly reduce total bit-risk (%v -> %v)", before, after)
	}
}

// horseshoeNet builds a U-shaped chain of PoPs: the two tips are
// geographically close but many hops apart, so tip-to-tip pairs pass the
// paper's >50% bit-mile reduction rule for candidate links.
func horseshoeNet(arms int, seed uint64) *risk.Context {
	rng := stats.NewRNG(seed)
	n := &topology.Network{Name: "Horseshoe", Tier: topology.Tier1}
	// Down the west arm, across the bottom, up the east arm.
	for i := 0; i < arms; i++ {
		n.PoPs = append(n.PoPs, topology.PoP{
			Name:     "W" + string(rune('A'+i)),
			Location: geo.Point{Lat: 44 - float64(i)*2, Lon: -100},
		})
	}
	n.PoPs = append(n.PoPs, topology.PoP{
		Name:     "Base",
		Location: geo.Point{Lat: 44 - float64(arms)*2, Lon: -97},
	})
	for i := 0; i < arms; i++ {
		n.PoPs = append(n.PoPs, topology.PoP{
			Name:     "E" + string(rune('A'+i)),
			Location: geo.Point{Lat: 44 - float64(arms-1-i)*2, Lon: -94},
		})
	}
	for i := 0; i+1 < len(n.PoPs); i++ {
		n.Links = append(n.Links, topology.Link{A: i, B: i + 1})
	}
	total := len(n.PoPs)
	hist := make([]float64, total)
	fractions := make([]float64, total)
	fSum := 0.0
	for i := range hist {
		hist[i] = rng.Float64() * 0.5
		fractions[i] = 0.1 + rng.Float64()
		fSum += fractions[i]
	}
	for i := range fractions {
		fractions[i] /= fSum
	}
	return &risk.Context{
		Net:       n,
		Hist:      hist,
		Fractions: fractions,
		Params:    risk.Params{LambdaH: 2e3, LambdaF: 1e3},
	}
}

func TestCandidateLinksCriterion(t *testing.T) {
	ctx := horseshoeNet(4, 23)
	e := mustEngine(t, ctx, Options{})
	cands := e.CandidateLinks()
	if len(cands) == 0 {
		t.Fatal("horseshoe should have tip-to-tip candidates")
	}
	distAP := ctx.Net.Graph().AllPairs()
	for _, c := range cands {
		if ctx.Net.HasLink(c.A, c.B) {
			t.Errorf("candidate (%d,%d) already linked", c.A, c.B)
		}
		direct := ctx.Net.LinkMiles(c)
		if direct >= 0.5*distAP[c.A][c.B] {
			t.Errorf("candidate (%d,%d) violates the >50%% reduction rule", c.A, c.B)
		}
	}
}

func TestBestAdditionalLinkIsOptimalAmongCandidates(t *testing.T) {
	ctx := horseshoeNet(3, 29)
	e := mustEngine(t, ctx, Options{AlphaBuckets: 32})
	best, err := e.BestAdditionalLink()
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: rebuild the engine for every candidate and compare the
	// exact totals. The bucket-scored winner must be within a whisker of
	// the true optimum.
	cands := e.CandidateLinks()
	bestExact := math.Inf(1)
	var exactTotals []float64
	for _, c := range cands {
		net2 := ctx.Net.Clone()
		if err := net2.AddLink(c.A, c.B); err != nil {
			t.Fatal(err)
		}
		ctx2 := *ctx
		ctx2.Net = net2
		e2 := mustEngine(t, &ctx2, Options{AlphaBuckets: 32})
		total := e2.TotalBitRisk()
		exactTotals = append(exactTotals, total)
		if total < bestExact {
			bestExact = total
		}
	}
	// The chosen link's exact total.
	net2 := ctx.Net.Clone()
	if err := net2.AddLink(best.Link.A, best.Link.B); err != nil {
		t.Fatal(err)
	}
	ctx2 := *ctx
	ctx2.Net = net2
	chosenTotal := mustEngine(t, &ctx2, Options{AlphaBuckets: 32}).TotalBitRisk()
	if chosenTotal > bestExact*1.005 {
		t.Errorf("chosen link total %v, true optimum %v (totals %v)", chosenTotal, bestExact, exactTotals)
	}
}

func TestGreedyAdditionalLinksMonotone(t *testing.T) {
	ctx := horseshoeNet(5, 31)
	e := mustEngine(t, ctx, Options{})
	adds, err := e.GreedyAdditionalLinks(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(adds) == 0 {
		t.Fatal("no additions")
	}
	base := e.TotalBitRisk()
	prev := base
	seen := map[[2]int]bool{}
	for i, a := range adds {
		if a.TotalAfter > prev+1e-6 {
			t.Errorf("step %d increased total: %v -> %v", i, prev, a.TotalAfter)
		}
		if math.Abs(a.Fraction-a.TotalAfter/base) > 1e-9 {
			t.Errorf("step %d fraction inconsistent", i)
		}
		key := [2]int{a.Link.A, a.Link.B}
		if seen[key] {
			t.Errorf("link %v added twice", key)
		}
		seen[key] = true
		prev = a.TotalAfter
	}
	if adds[len(adds)-1].Fraction >= 1 {
		t.Errorf("final fraction %v, want < 1", adds[len(adds)-1].Fraction)
	}
}

// TestGreedyKeepsRiskContext prices every greedy step under the context it
// started from: with span risk and with an Impact override, each step's
// TotalAfter equals TotalBitRisk of a fresh engine on the augmented
// network under the same context, the added links carrying no span risk.
func TestGreedyKeepsRiskContext(t *testing.T) {
	spanCtx := horseshoeNet(5, 31)
	span := make([]float64, len(spanCtx.Net.Links))
	for li := range span {
		span[li] = 0.02 * float64(li%4)
	}
	spanCtx.SetLinkHist(span)
	impactCtx := horseshoeNet(5, 31)
	fr := impactCtx.Fractions
	impactCtx.Impact = func(i, j int) float64 { return 30 * fr[i] * fr[j] }

	for name, ctx := range map[string]*risk.Context{"span risk": spanCtx, "impact": impactCtx} {
		e := mustEngine(t, ctx, Options{})
		adds, err := e.GreedyAdditionalLinks(2)
		if err != nil || len(adds) != 2 {
			t.Fatalf("%s: GreedyAdditionalLinks = %v, %v", name, adds, err)
		}
		aug := &risk.Context{Net: ctx.Net.Clone(), Hist: ctx.Hist, Fractions: ctx.Fractions,
			Params: ctx.Params, Impact: ctx.Impact}
		for step, a := range adds {
			if err := aug.Net.AddLink(a.Link.A, a.Link.B); err != nil {
				t.Fatal(err)
			}
			if ctx == spanCtx {
				aug.SetLinkHist(append(span[:len(span):len(span)], make([]float64, step+1)...))
			}
			if want := mustEngine(t, aug, Options{}).TotalBitRisk(); !sameBits(a.TotalAfter, want) {
				t.Errorf("%s: step %d TotalAfter %v, fresh engine %v", name, step+1, a.TotalAfter, want)
			}
		}
		if adds[0].Fraction >= 1 {
			t.Errorf("%s: first link's fraction %v, want < 1", name, adds[0].Fraction)
		}
	}
}

// sameAdditions reports whether two greedy sweeps added the same links
// under the same rules with Float64bits-equal totals and fractions.
func sameAdditions(a, b []Addition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Link != b[i].Link || !sameBits(a[i].Rule, b[i].Rule) ||
			!sameBits(a[i].TotalAfter, b[i].TotalAfter) || !sameBits(a[i].Fraction, b[i].Fraction) {
			return false
		}
	}
	return true
}

// TestGreedyRuleLadder holds the one greedy loop to both behaviours it
// serves. With no rules, or the paper's 0.5 alone, it is the paper's greedy,
// which stops when E_C runs dry. With the provisioning experiments' ladder
// it follows that sweep while the paper's rule has candidates, then goes on
// under looser rules. Every step takes the first rule whose E_C (computed
// here on the materialized graph) is non-empty, so the rule never loosens
// back, and every added link is an unlinked candidate under it.
func TestGreedyRuleLadder(t *testing.T) {
	ladder := []float64{0.5, 0.35, 0.25, 0.15}
	const k = 8
	for _, arms := range []int{3, 5} {
		e := mustEngine(t, horseshoeNet(arms, 31), Options{})
		paper, err := e.GreedyAdditionalLinks(k)
		if err != nil {
			t.Fatal(err)
		}
		if explicit, err := e.GreedyAdditionalLinks(k, paperRule); err != nil || !sameAdditions(explicit, paper) {
			t.Fatalf("arms %d: GreedyAdditionalLinks(k, 0.5) = %+v, %v; without rules %+v", arms, explicit, err, paper)
		}
		if len(paper) >= k {
			t.Fatalf("arms %d: the paper's rule lasted all %d steps; the fixture must run it dry", arms, k)
		}
		laddered, err := e.GreedyAdditionalLinks(k, ladder...)
		if err != nil {
			t.Fatal(err)
		}
		if len(laddered) != k || !sameAdditions(laddered[:len(paper)], paper) {
			t.Fatalf("arms %d: ladder sweep %+v does not extend the paper's %+v to %d links", arms, laddered, paper, k)
		}
		if r := laddered[len(paper)].Rule; !(r < paperRule) {
			t.Errorf("arms %d: step %d after the paper's rule ran dry used rule %v", arms, len(paper)+1, r)
		}
		cur := e
		for step, a := range laddered {
			if step > 0 && a.Rule > laddered[step-1].Rule {
				t.Errorf("arms %d: step %d loosened back from %v to %v", arms, step+1, laddered[step-1].Rule, a.Rule)
			}
			net := cur.Ctx.Net
			dist := net.Graph().AllPairs()
			candidate := func(l topology.Link, rule float64) bool {
				return !net.HasLink(l.A, l.B) && net.LinkMiles(l) < (1-rule)*dist[l.A][l.B]
			}
			if !candidate(a.Link, a.Rule) {
				t.Errorf("arms %d: step %d added %v, not a candidate under rule %v", arms, step+1, a.Link, a.Rule)
			}
			r := slices.Index(ladder, a.Rule)
			if r < 0 {
				t.Fatalf("arms %d: step %d rule %v is not on the ladder", arms, step+1, a.Rule)
			}
			for _, rule := range ladder[:r] {
				for x := range net.PoPs {
					for y := x + 1; y < len(net.PoPs); y++ {
						if candidate(topology.Link{A: x, B: y}, rule) {
							t.Errorf("arms %d: step %d used rule %v though rule %v has candidate %d-%d",
								arms, step+1, a.Rule, rule, x, y)
						}
					}
				}
			}
			if cur, err = cur.WithLink(a.Link); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestGreedyArgErrors(t *testing.T) {
	ctx := gridNet(3, 3, 37)
	e := mustEngine(t, ctx, Options{})
	if _, err := e.GreedyAdditionalLinks(0); err == nil {
		t.Error("k=0 accepted")
	}
	for _, l := range []topology.Link{{A: -1, B: 2}, {A: 0, B: 9}, {A: 4, B: 4}, ctx.Net.Links[0]} {
		if _, err := e.WithLink(l); err == nil {
			t.Errorf("WithLink(%v) accepted", l)
		}
	}
}

func TestBestAdditionalLinkNoCandidates(t *testing.T) {
	// A fully connected triangle has no candidates.
	n := &topology.Network{
		Name: "Tri", Tier: topology.Tier1,
		PoPs: []topology.PoP{
			{Name: "A", Location: geo.Point{Lat: 30, Lon: -100}},
			{Name: "B", Location: geo.Point{Lat: 31, Lon: -99}},
			{Name: "C", Location: geo.Point{Lat: 30, Lon: -98}},
		},
		Links: []topology.Link{{A: 0, B: 1}, {A: 1, B: 2}, {A: 0, B: 2}},
	}
	ctx := &risk.Context{
		Net:       n,
		Hist:      []float64{0.1, 0.2, 0.3},
		Fractions: []float64{0.3, 0.3, 0.4},
		Params:    risk.PaperParams(),
	}
	e := mustEngine(t, ctx, Options{})
	if _, err := e.BestAdditionalLink(); err == nil {
		t.Error("triangle should have no candidate links")
	}
}

func TestBucketOfRange(t *testing.T) {
	ctx := gridNet(3, 3, 41)
	e := mustEngine(t, ctx, Options{AlphaBuckets: 8})
	for i := 0; i < e.N(); i++ {
		for j := 0; j < e.N(); j++ {
			b := e.bucketOf(e.Ctx.Alpha(i, j))
			if b < 0 || b >= 8 {
				t.Fatalf("bucket %d out of range", b)
			}
		}
	}
	// Out-of-range alphas clamp.
	if e.bucketOf(-1) != 0 || e.bucketOf(99) != 7 {
		t.Error("bucketOf should clamp")
	}
}

func TestUniformFractionsSingleBucket(t *testing.T) {
	ctx := gridNet(3, 3, 43)
	for i := range ctx.Fractions {
		ctx.Fractions[i] = 1.0 / 9
	}
	e := mustEngine(t, ctx, Options{AlphaBuckets: 16})
	if len(e.buckets) != 1 {
		t.Errorf("uniform fractions should collapse to one bucket, got %d", len(e.buckets))
	}
	// And quantized == exact in that case.
	q := e.Evaluate()
	x := e.EvaluateExact()
	if math.Abs(q.RiskReduction-x.RiskReduction) > 1e-9 {
		t.Errorf("single-bucket rr %v != exact %v", q.RiskReduction, x.RiskReduction)
	}
}

func BenchmarkEvaluateGrid36(b *testing.B) {
	ctx := gridNet(6, 6, 47)
	e, err := New(ctx, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate()
	}
}

func BenchmarkRiskRoutePair(b *testing.B) {
	ctx := gridNet(6, 6, 53)
	e, err := New(ctx, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RiskRoutePair(i%36, (i+17)%36)
	}
}

func BenchmarkScoreCandidatesGrid25(b *testing.B) {
	ctx := gridNet(5, 5, 59)
	e, err := New(ctx, Options{})
	if err != nil {
		b.Fatal(err)
	}
	cands := e.CandidateLinks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScoreCandidates(cands)
	}
}

func TestParallelDeterminism(t *testing.T) {
	// Results must be bit-identical at any worker count: per-source partials
	// are reduced in source order.
	ctx := gridNet(5, 5, 137)
	seq := mustEngine(t, ctx, Options{Workers: 1})
	par := mustEngine(t, ctx, Options{Workers: 8})
	rs := seq.Evaluate()
	rp := par.Evaluate()
	if rs != rp {
		t.Errorf("sequential %+v != parallel %+v", rs, rp)
	}
	ts := seq.TotalBitRisk()
	tp := par.TotalBitRisk()
	if ts != tp {
		t.Errorf("sequential total %v != parallel %v", ts, tp)
	}
	sub1 := seq.EvaluateSubset([]int{0, 3, 7}, []int{10, 20, 24})
	sub8 := par.EvaluateSubset([]int{0, 3, 7}, []int{10, 20, 24})
	if sub1 != sub8 {
		t.Errorf("subset: sequential %+v != parallel %+v", sub1, sub8)
	}
	tsub1 := seq.TotalBitRiskSubset([]int{0, 3, 7, 10, 3}, []int{3, 10, 20, 24, 10})
	tsub8 := par.TotalBitRiskSubset([]int{0, 3, 7, 10, 3}, []int{3, 10, 20, 24, 10})
	if tsub1 != tsub8 {
		t.Errorf("subset total: sequential %v != parallel %v", tsub1, tsub8)
	}
}

// TestBuildTimingWithoutTrace pins build and sweep timings on untraced
// engines (the serving daemon's reprices carry a registry and no span): the
// build histogram and the "engine built" and "sweep complete" records all
// report positive seconds.
func TestBuildTimingWithoutTrace(t *testing.T) {
	reg := obs.NewRegistry()
	var logs bytes.Buffer
	opts := Options{Metrics: reg, Logger: slog.New(slog.NewJSONHandler(&logs, nil))}
	e := mustEngine(t, gridNet(4, 4, 3), opts)
	for i := 0; i < 3; i++ {
		if _, err := e.Reprice(e.Ctx, opts); err != nil {
			t.Fatalf("Reprice: %v", err)
		}
	}
	e.Evaluate()
	h := reg.Histogram("core.engine.build_seconds", obs.LatencyBuckets())
	if h.Count() != 4 || !(h.Sum() > 0) {
		t.Fatalf("build_seconds count %d sum %v, want 4 positive observations", h.Count(), h.Sum())
	}
	seen := map[string]int{}
	dec := json.NewDecoder(&logs)
	for dec.More() {
		var rec struct {
			Msg     string  `json:"msg"`
			Seconds float64 `json:"seconds"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if !(rec.Seconds > 0) {
			t.Errorf("%q record reports %v seconds", rec.Msg, rec.Seconds)
		}
		seen[rec.Msg]++
	}
	if seen["engine built"] != 4 || seen["sweep complete"] != 1 {
		t.Fatalf("records seen %v, want 4 builds and 1 sweep", seen)
	}
}

// The telemetry overhead pair: Evaluate with instrumentation disabled (nil
// registry and trace — every handle is a no-op) versus fully enabled. The
// observability budget in DESIGN.md holds the On/Off delta to <= 2%.
func BenchmarkEvaluateTelemetryOff(b *testing.B) {
	ctx := gridNet(6, 6, 47)
	e, err := New(ctx, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate()
	}
}

func BenchmarkEvaluateTelemetryOn(b *testing.B) {
	ctx := gridNet(6, 6, 47)
	reg := obs.NewRegistry()
	trace := obs.NewTrace("bench")
	e, err := New(ctx, Options{Metrics: reg, Trace: trace})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate()
	}
}
