package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"riskroute/internal/forecast"
	"riskroute/internal/risk"
)

// Point queries are steered by per-target bound rows (pairBound). The
// tests below hold the bound to the true remaining cost, computed by the
// engine's own unguided search from the target (the network is
// undirected), and pin when a lineage fills, shares and drops its rows.

// checkRows requires e's bound toward every target j to stay at or below
// every PoP v's remaining cost at α = 0 and α = 50 (one full sweep from j
// each) and at the pair's own α (a search from j that stops at v, whose
// label there is the full sweep's), and never to be NaN.
func checkRows(t *testing.T, label string, e *Engine) {
	t.Helper()
	n := e.N()
	check := func(v, j int, alpha, want float64) {
		b := e.pairBound(j, alpha)
		if h := b.at(v); math.IsNaN(h) || h > want {
			t.Fatalf("%s: bound(%d → %d) at α %g = %v exceeds the remaining cost %v", label, v, j, alpha, h, want)
		}
	}
	for j := 0; j < n; j++ {
		for _, alpha := range []float64{0, 50} {
			s := e.adj.Sweep(j, alpha)
			for v, d := range s.Dist {
				check(v, j, alpha, d)
			}
			s.Release()
		}
		for v := 0; v < n; v++ {
			alpha := e.Ctx.Alpha(v, j)
			s := e.adj.Route(j, v, alpha)
			check(v, j, alpha, s.Dist[v])
			s.Release()
		}
	}
}

// checkRowsTight requires the root engine's rows to be exact: at α = 0 the
// bound is the α = 0 distance but for its margins, and at α = 1e12, with
// no forecast or span risk, it carries the least-risk path's whole risk,
// λ_h·(ri + (o_h(v) + o_h(j))/2), so it trails the remaining cost by no
// more than that path's extra miles (under 2e4 on any built-in network).
func checkRowsTight(t *testing.T, label string, e *Engine) {
	t.Helper()
	n := e.N()
	for j := 0; j < n; j++ {
		for _, c := range []struct{ alpha, slack float64 }{{0, 0}, {1e12, 2e4}} {
			b := e.pairBound(j, c.alpha)
			s := e.adj.Sweep(j, c.alpha)
			for v, d := range s.Dist {
				if h := b.at(v); !math.IsInf(d, 1) && d-h > 1e-6*d+c.slack {
					t.Fatalf("%s: bound(%d → %d) at α %g = %v, remaining cost %v", label, v, j, c.alpha, h, d)
				}
			}
			s.Release()
		}
	}
}

// TestBoundRowsAdmissibleWorld checks every target and every PoP of the 23
// networks of the test-scale world under the engines a lineage derives:
// the root at the paper's parameters (whose rows must also be exact), a
// custom-λ reprice under the Sandy forecast and one with an Impact
// override (both sharing the root's rows), a reprice over a copied Hist
// scaled down fourfold (which must start fresh rows: the root's would
// overstate its interior risk), and a masked view without every fourth
// link (which keeps the root's rows).
func TestBoundRowsAdmissibleWorld(t *testing.T) {
	world, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	adv := sandyAdvisory(t)
	for _, w := range world {
		paper := &risk.Context{Net: w.net, Hist: w.hist, Fractions: w.fractions, Params: risk.PaperParams()}
		root := mustEngine(t, paper, Options{})
		checkRows(t, w.net.Name+" root", root)
		checkRowsTight(t, w.net.Name+" root", root)

		custom := *paper
		custom.Params.LambdaH = 1e6
		custom.Forecast = forecast.DefaultRiskModel().PoPRisks(adv, w.net)
		impact := *paper
		impact.Impact = func(i, j int) float64 { return 1e-4 * math.Exp(float64((i*7+j*7)%11)) }
		scaled := *paper
		scaled.Hist = make([]float64, len(w.hist))
		for v, h := range w.hist {
			scaled.Hist[v] = h / 4
		}
		var failed []int
		for li := range w.net.Links {
			if li%4 == 3 {
				failed = append(failed, li)
			}
		}
		masked, err := root.WithoutLinks(failed)
		if err != nil {
			t.Fatal(err)
		}
		reprice := func(ctx *risk.Context) *Engine {
			e, err := root.Reprice(ctx, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		for _, c := range []struct {
			name  string
			e     *Engine
			share bool
		}{
			{"custom λ", reprice(&custom), true},
			{"impact", reprice(&impact), true},
			{"copied Hist", reprice(&scaled), false},
			{"masked", masked, true},
		} {
			label := w.net.Name + " " + c.name
			if (c.e.rows == root.rows) != c.share {
				t.Fatalf("%s: shares the root's rows %v, want %v", label, c.e.rows == root.rows, c.share)
			}
			checkRows(t, label, c.e)
		}
	}
}

// TestBoundRowsFragmented requires +Inf, never NaN, toward every target
// from every PoP of another component of the fragmented lattice, at α = 0
// and with λ_h = 0 too (0·Inf and Inf − Inf would give NaN), and each such
// pair to route as the unguided search does: no path, infinite cost.
func TestBoundRowsFragmented(t *testing.T) {
	ctx := fragmentedGrid(29)
	flat := *ctx
	flat.Params.LambdaH = 0
	for _, c := range []*risk.Context{ctx, &flat} {
		e := mustEngine(t, c, Options{})
		label := fmt.Sprintf("fragmented λ_h %g", c.Params.LambdaH)
		checkRows(t, label, e)
		label0, _ := e.adj.Components()
		n := e.N()
		for j := 0; j < n; j++ {
			for v := 0; v < n; v++ {
				if label0[v] == label0[j] {
					continue
				}
				for _, alpha := range []float64{0, c.Alpha(v, j), 50} {
					b := e.pairBound(j, alpha)
					if h := b.at(v); !math.IsInf(h, 1) {
						t.Fatalf("%s: bound(%d → %d) at α %g = %v across components, want +Inf", label, v, j, alpha, h)
					}
				}
				if got, want := e.RiskRoutePair(v, j), plainPair(e, v, j); !samePair(got, want) || got.Path != nil {
					t.Fatalf("%s: RiskRoutePair(%d,%d) = %+v, unguided %+v", label, v, j, got, want)
				}
			}
		}
	}
}

// TestBoundRowsFillLazily pins that building, repricing and masking an
// engine fill no row and allocate no row state, that ShortestPair and the
// all-pairs evaluations never fill one, that a point query fills only its
// target's row, and which engines share a lineage's rows: Reprice over the
// lineage's own Hist and WithoutLinks do; Reprice over another Hist, New
// and WithLink start their own.
func TestBoundRowsFillLazily(t *testing.T) {
	base := gridNet(4, 5, 7)
	e := mustEngine(t, base, Options{})
	swap := *base
	swap.Params.LambdaH *= 3
	swap.Forecast = make([]float64, len(base.Hist))
	swap.Forecast[2] = 0.5
	r, err := e.Reprice(&swap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	view, err := r.WithoutLinks([]int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.rows != e.rows || view.rows != e.rows {
		t.Fatal("Reprice over the lineage's Hist or WithoutLinks does not share the rows")
	}
	e.ShortestPair(0, 5)
	r.Evaluate()
	r.TotalBitRisk()
	if e.rows.slots != nil {
		t.Fatal("row state allocated before the first point query")
	}

	const j = 13
	view.RiskRoutePair(2, j)
	for v := range e.rows.slots {
		if filled := e.rows.slots[v].Load() != nil; filled != (v == j) {
			t.Fatalf("after one query toward %d, target %d's row filled: %v", j, v, filled)
		}
	}
	row := e.rows.slots[j].Load()
	r.RiskRoutePair(7, j)
	if e.rows.slots[j].Load() != row {
		t.Fatal("a second query toward the same target filled its row again")
	}

	copied := swap
	copied.Hist = append([]float64(nil), base.Hist...)
	fresh, err := r.Reprice(&copied, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.rows == e.rows || fresh.rows.slots != nil || fresh.rows.adj != e.rows.adj {
		t.Fatal("a reprice over another Hist must start an empty store over the lineage's adjacency")
	}
	freshView, err := view.Reprice(&copied, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if freshView.rows.adj != e.rows.adj {
		t.Fatal("a masked view's reprice over another Hist would sweep the masked adjacency")
	}
	if !reflect.DeepEqual(fresh.boundRow(j), *row) {
		t.Fatal("a fresh store over an equal Hist fills another row")
	}
	if mustEngine(t, base, Options{}).rows == e.rows {
		t.Fatal("two New engines share rows")
	}
	grown, err := e.WithLink(unlinkedPair(base.Net))
	if err != nil {
		t.Fatal(err)
	}
	if grown.rows == e.rows || grown.rows.adj == e.rows.adj {
		t.Fatal("WithLink does not start its own rows")
	}
}

// TestBoundRowsConcurrentFill sends first queries toward one target from
// eight goroutines at once on a fresh Level3 engine of the test-scale
// world; every answer must equal the unguided search's, and the row left
// in the store must equal a sequential fill's. Under -race it also shows
// the fill publishes its row safely.
func TestBoundRowsConcurrentFill(t *testing.T) {
	world, err := testWorld()
	if err != nil {
		t.Fatal(err)
	}
	var w worldNet
	for _, x := range world {
		if x.net.Name == "Level3" {
			w = x
		}
	}
	ctx := &risk.Context{Net: w.net, Hist: w.hist, Fractions: w.fractions, Params: risk.PaperParams()}
	e := mustEngine(t, ctx, Options{})
	n, j := e.N(), 17
	got := make([]PairResult, n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				got[i] = e.RiskRoutePair(i, j)
			}
		}(g)
	}
	wg.Wait()
	for i := range got {
		if want := plainPair(e, i, j); !samePair(got[i], want) {
			t.Fatalf("RiskRoutePair(%d,%d) = %+v, unguided %+v", i, j, got[i], want)
		}
	}
	if want := mustEngine(t, ctx, Options{}).boundRow(j); !reflect.DeepEqual(*e.rows.slots[j].Load(), want) {
		t.Fatal("concurrent fills left a row unlike a sequential fill's")
	}
}
