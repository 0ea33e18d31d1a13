package core

import (
	"math"
	"reflect"
	"testing"

	"riskroute/internal/risk"
)

// explainCtx is gridNet with every attribution layer active: a forecast
// vector and per-span risk, so the decomposition exercises all four terms.
func explainCtx(seed uint64) *risk.Context {
	ctx := gridNet(4, 5, seed)
	fc := make([]float64, len(ctx.Hist))
	span := make([]float64, len(ctx.Net.Links))
	for i := range fc {
		fc[i] = float64((i*7)%5) * 10 // 0, 10, ..., 40 in a fixed pattern
	}
	for i := range span {
		span[i] = float64(i%3) * 0.05
	}
	ctx.Forecast = fc
	ctx.SetLinkHist(span)
	return ctx
}

// TestExplainReconcilesAllPairs is the tentpole invariant: for every
// ordered pair, the explanation of RiskRoutePair's path re-sums its
// per-edge parts bit-identically to RiskRoutePair's cost — not
// approximately, bit for bit — and so does ShortestPair's.
func TestExplainReconcilesAllPairs(t *testing.T) {
	e := mustEngine(t, explainCtx(11), Options{})
	n := e.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rr := e.RiskRoutePair(i, j)
			ex := e.ExplainPath(rr.Path, i, j)
			if math.Float64bits(ex.Cost) != math.Float64bits(rr.BitRiskMiles) {
				t.Fatalf("pair (%d,%d): ExplainPath cost %v != RiskRoutePair %v",
					i, j, ex.Cost, rr.BitRiskMiles)
			}
			if math.Float64bits(ex.Reconcile()) != math.Float64bits(ex.Cost) {
				t.Fatalf("pair (%d,%d): Reconcile %v != stored cost %v",
					i, j, ex.Reconcile(), ex.Cost)
			}
			if math.Float64bits(ex.Miles) != math.Float64bits(rr.Miles) {
				t.Fatalf("pair (%d,%d): ExplainPath miles %v != RiskRoutePair %v",
					i, j, ex.Miles, rr.Miles)
			}
			sp := e.ShortestPair(i, j)
			exs := e.ExplainPath(sp.Path, i, j)
			if math.Float64bits(exs.Cost) != math.Float64bits(sp.BitRiskMiles) {
				t.Fatalf("pair (%d,%d): shortest-leg explain cost %v != %v",
					i, j, exs.Cost, sp.BitRiskMiles)
			}
		}
	}
}

// TestExplainEdgeFields checks the per-edge decomposition against the risk
// context's own accessors: each edge's risk parts rebuild NodeRisk and
// LinkRisk of the entered node, and edge costs are internally consistent.
func TestExplainEdgeFields(t *testing.T) {
	ctx := explainCtx(3)
	e := mustEngine(t, ctx, Options{})
	ex := e.ExplainPath(e.RiskRoutePair(0, e.N()-1).Path, 0, e.N()-1)
	if len(ex.Edges) != len(ex.Path)-1 {
		t.Fatalf("%d edges for a %d-node path", len(ex.Edges), len(ex.Path))
	}
	for k, ed := range ex.Edges {
		if ed.From != ex.Path[k] || ed.To != ex.Path[k+1] {
			t.Fatalf("edge %d endpoints (%d,%d) do not match path", k, ed.From, ed.To)
		}
		if got, want := ed.BaseRisk+ed.ForecastRisk, ctx.NodeRisk(ed.To); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("edge %d: base+forecast %v != NodeRisk %v", k, got, want)
		}
		if got, want := ed.SpanRisk, ctx.LinkRisk(ed.From, ed.To); got != want {
			t.Fatalf("edge %d: span risk %v != LinkRisk %v", k, got, want)
		}
		if got, want := ed.Cost, ed.Miles+ed.RiskCost; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("edge %d: cost %v != miles+riskCost %v", k, got, want)
		}
	}
	// No forecast layer: the forecast term must be exactly zero and the
	// reconciliation must still hold (the +0.0 identity in the replay).
	ctx2 := gridNet(4, 5, 3)
	e2 := mustEngine(t, ctx2, Options{})
	rr2 := e2.RiskRoutePair(0, e2.N()-1)
	ex2 := e2.ExplainPath(rr2.Path, 0, e2.N()-1)
	for _, ed := range ex2.Edges {
		if ed.ForecastRisk != 0 {
			t.Fatalf("forecast risk %v without a forecast layer", ed.ForecastRisk)
		}
	}
	if math.Float64bits(ex2.Cost) != math.Float64bits(rr2.BitRiskMiles) {
		t.Fatal("reconciliation broken without a forecast layer")
	}
}

// TestExplainDeterministicAcrossWorkers pins the satellite property: the
// whole explanation (paths, every per-edge float, totals) is identical at
// every worker width.
func TestExplainDeterministicAcrossWorkers(t *testing.T) {
	var ref []Explanation
	for _, workers := range []int{1, 2, 3, 8} {
		e := mustEngine(t, explainCtx(11), Options{Workers: workers})
		e.Prebuild()
		var got []Explanation
		for i := 0; i < e.N(); i += 3 {
			for j := 1; j < e.N(); j += 4 {
				if i == j {
					continue
				}
				got = append(got, e.ExplainPath(e.RiskRoutePair(i, j).Path, i, j))
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("explanations differ between workers=1 and workers=%d", workers)
		}
	}
}

// TestExplainDisconnected mirrors describe(): a nil path explains to
// infinite cost with no edges.
func TestExplainDisconnected(t *testing.T) {
	e := mustEngine(t, explainCtx(5), Options{})
	ex := e.ExplainPath(nil, 0, 1)
	if !math.IsInf(ex.Cost, 1) || !math.IsInf(ex.Miles, 1) || len(ex.Edges) != 0 {
		t.Fatalf("nil path explanation: %+v", ex)
	}
}

func TestTopRiskEdges(t *testing.T) {
	ctx := explainCtx(9)
	e := mustEngine(t, ctx, Options{})
	all := e.TopRiskEdges(0)
	if len(all) != len(ctx.Net.Links) {
		t.Fatalf("k=0 returned %d of %d links", len(all), len(ctx.Net.Links))
	}
	for i, r := range all {
		if r.A >= r.B {
			t.Fatalf("edge %d endpoints not normalized: (%d,%d)", i, r.A, r.B)
		}
		want := (ctx.NodeRisk(r.A)+ctx.NodeRisk(r.B))/2 + ctx.LinkRisk(r.A, r.B)
		if math.Float64bits(r.Risk) != math.Float64bits(want) {
			t.Fatalf("edge (%d,%d): risk %v != symmetric charge %v", r.A, r.B, r.Risk, want)
		}
		if i > 0 && all[i-1].Risk < r.Risk {
			t.Fatalf("report not sorted at %d: %v < %v", i, all[i-1].Risk, r.Risk)
		}
	}
	top5 := e.TopRiskEdges(5)
	if len(top5) != 5 || !reflect.DeepEqual(top5, all[:5]) {
		t.Fatalf("k=5 is not the prefix of the full report")
	}
	// Determinism: two engines over the same context agree exactly.
	e2 := mustEngine(t, explainCtx(9), Options{Workers: 4})
	if !reflect.DeepEqual(all, e2.TopRiskEdges(0)) {
		t.Fatal("TopRiskEdges not deterministic across engines")
	}
}
