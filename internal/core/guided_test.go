package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/geo"
	"riskroute/internal/hazard"
	"riskroute/internal/obs"
	"riskroute/internal/population"
	"riskroute/internal/risk"
	"riskroute/internal/topology"
)

// Point queries run a goal-directed search (route, steered by pairBound).
// The tests below hold it to the unguided early-exit search it replaced,
// kept as the oracle: paths equal and costs Float64bits-equal.

// plainPair routes i→j with the unguided kernel and prices the path as
// route does.
func plainPair(e *Engine, i, j int) PairResult {
	s := e.adj.Route(i, j, e.Ctx.Alpha(i, j))
	defer s.Release()
	return e.price(i, j, s.PathTo(j), s.Via)
}

// worldNet is one built-in network of the test-scale world (4,000 census
// blocks, hazard catalogs at 0.03 scale, seed 1): its fitted historical
// risk and population fractions.
type worldNet struct {
	net       *topology.Network
	hist      []float64
	fractions []float64
}

var testWorld = sync.OnceValues(func() ([]worldNet, error) {
	model, err := hazard.Fit(hazard.SyntheticSources(0.03, 1), hazard.FitConfig{})
	if err != nil {
		return nil, err
	}
	census := datasets.GenerateCensus(datasets.CensusConfig{Blocks: 4000, Seed: 1})
	var out []worldNet
	for _, net := range datasets.BuildNetworks() {
		asg, err := population.Assign(census, net)
		if err != nil {
			return nil, err
		}
		out = append(out, worldNet{net: net, hist: model.PoPRisks(net), fractions: asg.Fractions})
	}
	return out, nil
})

// TestGuidedRouteMatchesPlainWorld routes every ordered pair of the 23
// built-in networks of the test-scale world with RiskRoutePair, at the
// paper's parameters and at a custom λ_h under a Sandy advisory's forecast
// layer, and requires the unguided search's answer bit for bit. It also
// requires the guided search to answer without a fallback: these networks
// have no exact ties, so a fallback here would mean the guard fires on
// ordinary input and the speed-up is gone.
func TestGuidedRouteMatchesPlainWorld(t *testing.T) {
	world, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	adv := sandyAdvisory(t)
	reg := obs.NewRegistry()
	for _, w := range world {
		paper := &risk.Context{Net: w.net, Hist: w.hist, Fractions: w.fractions, Params: risk.PaperParams()}
		custom := *paper
		custom.Params.LambdaH = 1e6
		custom.Forecast = forecast.DefaultRiskModel().PoPRisks(adv, w.net)
		e := mustEngine(t, paper, Options{Metrics: reg})
		repriced, err := e.Reprice(&custom, Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*Engine{e, repriced} {
			n := e.N()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got, want := e.RiskRoutePair(i, j), plainPair(e, i, j); !samePair(got, want) {
						t.Fatalf("%s λ_h %g: RiskRoutePair(%d,%d) = %+v, unguided %+v",
							w.net.Name, e.Ctx.Params.LambdaH, i, j, got, want)
					}
				}
			}
		}
	}
	if n := reg.Counter("core.route.fallbacks_total").Value(); n != 0 {
		t.Errorf("%d guided searches fell back on the test-scale world", n)
	}
}

// TestPairPropertiesAcrossLambda checks Eqs. 3, 5 and 6 pair by pair on
// three Tier-1 networks and one regional network of the test-scale world.
// At each λ_h, every ordered pair's RiskRoute cost is at most its
// shortest path's bit-risk cost and its miles at least the shortest
// path's, so the pair's rr lies in [0, 1) and its dr is at least 0. As
// λ_h grows, the path RiskRoutePair picks holds no more historical risk
// and no fewer miles: with cost = miles + α·λ_h·H, optimality at λ₁ and at
// λ₂ > λ₁ gives α·(λ₂ − λ₁)·(H₂ − H₁) ≤ 0. Comparisons allow a relative
// 1e-12 for rounding.
func TestPairPropertiesAcrossLambda(t *testing.T) {
	world, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-12
	atMost := func(a, b float64) bool { return a <= b+tol*math.Abs(b) }
	for _, w := range world {
		switch w.net.Name {
		case "AT&T", "Sprint", "Tinet", "Telepak":
		default:
			continue
		}
		n := len(w.net.PoPs)
		// The last λ_h's RiskRoutePair miles and historical-risk content, by i·n+j.
		prevMiles, prevHist := make([]float64, n*n), make([]float64, n*n)
		for k, lh := range []float64{1e4, 1e5, 1e6} {
			e := mustEngine(t, &risk.Context{Net: w.net, Hist: w.hist, Fractions: w.fractions,
				Params: risk.Params{LambdaH: lh}}, Options{})
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					rr, sp := e.RiskRoutePair(i, j), e.ShortestPair(i, j)
					if !(rr.BitRiskMiles > 0 && atMost(rr.BitRiskMiles, sp.BitRiskMiles)) {
						t.Fatalf("%s λ_h %g (%d,%d): RiskRoute costs %v, shortest path %v",
							w.net.Name, lh, i, j, rr.BitRiskMiles, sp.BitRiskMiles)
					}
					if !atMost(sp.Miles, rr.Miles) {
						t.Fatalf("%s λ_h %g (%d,%d): RiskRoute runs %v miles, shortest path %v",
							w.net.Name, lh, i, j, rr.Miles, sp.Miles)
					}
					hist := 0.0
					for _, v := range rr.Path[1:] {
						hist += w.hist[v]
					}
					p := i*n + j
					if k > 0 && (!atMost(hist, prevHist[p]) || !atMost(prevMiles[p], rr.Miles)) {
						t.Fatalf("%s (%d,%d): λ_h %g → %g moved the path's historical risk %v → %v and miles %v → %v",
							w.net.Name, i, j, lh/10, lh, prevHist[p], hist, prevMiles[p], rr.Miles)
					}
					prevMiles[p], prevHist[p] = rr.Miles, hist
				}
			}
		}
	}
}

// nearNet is a small network with two PoPs 1e-7° apart and two at the
// same position, each pair joined by a link, inside a ring of ordinary
// PoPs: the chord between the near pair cancels to a few significant bits.
func nearNet() *risk.Context {
	net := &topology.Network{Name: "Near", Tier: topology.Regional}
	pts := []geo.Point{
		{Lat: 30, Lon: -95}, {Lat: 30 + 1e-7, Lon: -95}, // 0, 1: 1e-7° apart
		{Lat: 32, Lon: -90}, {Lat: 32, Lon: -90}, // 2, 3: co-located
		{Lat: 35, Lon: -93}, {Lat: 29.5, Lon: -91}, {Lat: 33, Lon: -97},
	}
	for k, p := range pts {
		net.PoPs = append(net.PoPs, topology.PoP{Name: fmt.Sprintf("N%d", k), Location: p})
	}
	for _, l := range [][2]int{{0, 1}, {2, 3}, {1, 5}, {5, 2}, {3, 4}, {4, 6}, {6, 0}, {0, 5}, {1, 6}} {
		net.Links = append(net.Links, topology.Link{A: l[0], B: l[1]})
	}
	n := len(pts)
	hist, fractions := make([]float64, n), make([]float64, n)
	for v := range hist {
		hist[v] = 1e-4 * float64(v%3)
		fractions[v] = 1 / float64(n)
	}
	return &risk.Context{Net: net, Hist: hist, Fractions: fractions, Params: risk.PaperParams()}
}

// TestPairBoundAdmissible requires the bound to stay at or below every
// node's true remaining cost (a full sweep from the target; the network is
// undirected) on the near-co-located fixture, at α = 0, at each pair's α
// and at a large α, and every pair to route as the unguided search does.
// The bound's risk term needs every ρ ≥ 0, so New must refuse a context
// that would give the interior PoP 5 a negative ρ through a negative
// forecast entry while every link's risk stays non-negative.
func TestPairBoundAdmissible(t *testing.T) {
	negative := nearNet()
	negative.Params = risk.Params{LambdaH: 1e5, LambdaF: 1}
	negative.Forecast = []float64{10, 0, 0, 0, 0, -25, 0} // ρ = 10, 10, 20, 0, 10, -5, 0
	if _, err := New(negative, Options{}); err == nil {
		t.Error("New accepted a context with a negative forecast risk")
	}

	ctx := nearNet()
	e := mustEngine(t, ctx, Options{})
	if d := e.miles[0]; !(d > 0 && d < 1e-5) {
		t.Fatalf("near pair is %v miles apart, want (0, 1e-5)", d)
	}
	if d := e.miles[1]; d != 0 {
		t.Fatalf("co-located pair is %v miles apart", d)
	}
	n := e.N()
	for j := 0; j < n; j++ {
		for _, alpha := range []float64{0, ctx.Alpha(0, j), 50} {
			b := e.pairBound(j, alpha)
			s := e.adj.Sweep(j, alpha)
			for v := 0; v < n; v++ {
				if h := b.at(v); h > s.Dist[v] {
					t.Errorf("bound(%d → %d) at α %g = %v exceeds the remaining cost %v", v, j, alpha, h, s.Dist[v])
				}
			}
			s.Release()
		}
	}
	for _, p := range allPairs(n) {
		if got, want := e.RiskRoutePair(p[0], p[1]), plainPair(e, p[0], p[1]); !samePair(got, want) {
			t.Errorf("RiskRoutePair%v = %+v, unguided %+v", p, got, want)
		}
	}
}

// TestGuidedRouteFallsBackOnTies routes the mirrored ladder's tied pair:
// north and south price bitwise-equal, only adjacency order breaks the tie,
// and the guided search reaches the tie from the far side. RiskRoutePair
// and a masked view's ShortestPair must fall back and count it, answering
// with the unguided search's path.
func TestGuidedRouteFallsBackOnTies(t *testing.T) {
	mirror, fc, span := mirrorNet()
	reg := obs.NewRegistry()
	e := mustEngine(t, kernelContexts(mirror, fc, span)[1], Options{Metrics: reg})
	fallbacks := reg.Counter("core.route.fallbacks_total")
	want := plainPair(e, 5, 7)
	if !reflect.DeepEqual(want.Path, []int{5, 10, 11, 12, 7}) {
		t.Fatalf("unguided search took %v, want the mirror's first route", want.Path)
	}
	if got := e.RiskRoutePair(5, 7); !samePair(got, want) || fallbacks.Value() != 1 {
		t.Fatalf("RiskRoutePair(5,7) = %v after %d fallbacks, want %v after 1", got.Path, fallbacks.Value(), want.Path)
	}
	masked, err := e.WithoutLinks(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := masked.ShortestPair(5, 7); !samePair(got, e.ShortestPair(5, 7)) || fallbacks.Value() != 2 {
		t.Fatalf("masked ShortestPair(5,7) = %v after %d fallbacks, want %v after 2",
			got.Path, fallbacks.Value(), e.ShortestPair(5, 7).Path)
	}
}

// TestRepriceInheritsAlphaQuantization holds a reprice over the lineage's
// own fractions to New's α range and buckets, shared rather than
// recomputed, and requires a reprice over other fractions, an Impact
// override or another bucket count to recompute them.
func TestRepriceInheritsAlphaQuantization(t *testing.T) {
	base := gridNet(4, 5, 7)
	e := mustEngine(t, base, Options{AlphaBuckets: 8})
	quantization := func(x *Engine) []any { return []any{x.alphaLo, x.alphaHi, x.logBuckets, x.buckets} }

	swap := *base
	swap.Params.LambdaH *= 3
	r, err := e.Reprice(&swap, Options{AlphaBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(quantization(r), quantization(mustEngine(t, &swap, Options{AlphaBuckets: 8}))) {
		t.Error("inherited α quantization differs from New's")
	}
	if &r.buckets[0] != &e.buckets[0] {
		t.Error("a reprice over the lineage's own fractions recomputed the buckets")
	}

	other := swap
	other.Fractions = append([]float64(nil), base.Fractions...)
	other.Fractions[0] *= 40
	impact := swap
	impact.Impact = func(i, j int) float64 { return float64(1+i+j) / 100 }
	for name, c := range map[string]struct {
		ctx     *risk.Context
		buckets int
	}{
		"other fractions": {&other, 8},
		"impact override": {&impact, 8},
		"bucket count":    {&swap, 5},
	} {
		r, err := e.Reprice(c.ctx, Options{AlphaBuckets: c.buckets})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(quantization(r), quantization(mustEngine(t, c.ctx, Options{AlphaBuckets: c.buckets}))) {
			t.Errorf("%s: α quantization differs from New's", name)
		}
		if &r.buckets[0] == &e.buckets[0] {
			t.Errorf("%s: reprice kept the lineage's buckets", name)
		}
	}
}
