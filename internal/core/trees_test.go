package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/risk"
	"riskroute/internal/stats"
	"riskroute/internal/topology"
)

// ShortestPair and ExplainShortest answer from an engine lineage's α = 0
// trees, one full sweep per source. The early-exit search they replaced,
// route(i, j, 0), stays as their oracle: paths must be equal and every
// figure Float64bits-equal.

// treeCase is one network with the forecast and span vectors that
// kernelContexts switches on and off.
type treeCase struct {
	name     string
	base     *risk.Context
	fc, span []float64
}

// treeCases returns every built-in network and the kernel fixtures: the
// lattice, a fragmented lattice, a lattice with parallel links, one with a
// skewed Impact override and the mirrored ladder's exact ties.
func treeCases(t *testing.T) []treeCase {
	t.Helper()
	adv := sandyAdvisory(t)
	var out []treeCase
	for ni, net := range datasets.BuildNetworks() {
		base, fc, span := builtinContext(t, net, adv, uint64(100+ni))
		out = append(out, treeCase{net.Name, base, fc, span})
	}
	skewed := gridNet(4, 5, 31)
	skewed.Impact = func(i, j int) float64 {
		return 1e-4 * math.Exp(float64((i*7+j*7)%11))
	}
	for _, f := range []struct {
		name string
		base *risk.Context
	}{
		{"grid", gridNet(4, 5, 23)},
		{"fragmented", fragmentedGrid(29)},
		{"parallel", parallelGrid(37)},
		{"impact", skewed},
	} {
		rng := stats.NewRNG(5)
		fc := make([]float64, len(f.base.Net.PoPs))
		for i := range fc {
			fc[i] = float64(rng.Intn(3)) * 0.05
		}
		span := make([]float64, len(f.base.Net.Links))
		for i := range span {
			span[i] = 0.2 * rng.Float64()
		}
		for i := range f.base.Hist {
			f.base.Hist[i] *= 0.02
		}
		out = append(out, treeCase{f.name, f.base, fc, span})
	}
	mirror, fc, span := mirrorNet()
	return append(out, treeCase{"mirror", mirror, fc, span})
}

// checkShortest holds e's ShortestPair and ExplainShortest to route(i, j, 0)
// on every pair, visited in a seeded shuffle split across workers
// goroutines.
func checkShortest(t *testing.T, label string, e *Engine, pairs [][2]int, workers int, seed uint64) {
	t.Helper()
	order := stats.NewRNG(seed).Perm(len(pairs))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for x := g; x < len(order); x += workers {
				i, j := pairs[order[x]][0], pairs[order[x]][1]
				want := e.route(i, j, 0)
				if got := e.ShortestPair(i, j); !samePair(got, want) {
					t.Errorf("%s: ShortestPair(%d,%d) = %+v, early exit %+v", label, i, j, got, want)
					return
				}
				if got, want := e.ExplainShortest(i, j), e.ExplainPath(want.Path, i, j); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: ExplainShortest(%d,%d) = %+v, early exit %+v", label, i, j, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// TestShortestTreesDeterministic fills one engine's trees from 8 goroutines
// in a shuffled order of every pair under one context (λ_h = 1e4, forecast
// and span risk on). It then reads every pair through the end of a Reprice
// chain under two others, and source 0's pairs through a WithoutLinks view
// of that end, which keeps no trees and searches. Each answer must equal
// the early-exit search of the engine answering it. The chain must share
// the filled trees without sweeping any again; New, WithLink and
// WithoutLinks must not share them.
func TestShortestTreesDeterministic(t *testing.T) {
	for _, tc := range treeCases(t) {
		ctxs := kernelContexts(tc.base, tc.fc, tc.span)
		pairs := allPairs(len(tc.base.Net.PoPs))
		filled := mustEngine(t, ctxs[1], Options{})
		checkShortest(t, tc.name+" fill", filled, pairs, 8, 1)
		swept := make([]*[]int32, len(filled.trees.slots))
		for i := range swept {
			if swept[i] = filled.trees.slots[i].Load(); swept[i] == nil {
				t.Fatalf("%s: source %d has no tree after every pair was asked", tc.name, i)
			}
		}

		e := filled
		for _, k := range []int{2, 0} { // λ_h 3e5 with span risk, then 1e5 with neither layer
			var err error
			if e, err = e.Reprice(ctxs[k], Options{}); err != nil {
				t.Fatalf("%s: Reprice: %v", tc.name, err)
			}
			if e.trees != filled.trees {
				t.Fatalf("%s: Reprice does not share the trees", tc.name)
			}
		}
		checkShortest(t, tc.name+" repriced", e, pairs, 1, 2)
		for i := range swept {
			if filled.trees.slots[i].Load() != swept[i] {
				t.Fatalf("%s: source %d was swept again after the fill", tc.name, i)
			}
		}

		// Fail the link by which source 0's tree enters some node, so a view
		// that read the trees would route across it.
		failed := -1
		for _, l := range e.shortestTree(0) {
			if l >= 0 {
				failed = int(l)
				break
			}
		}
		view, err := e.WithoutLinks([]int{failed})
		if err != nil {
			t.Fatalf("%s: WithoutLinks: %v", tc.name, err)
		}
		if view.trees != nil {
			t.Fatalf("%s: a WithoutLinks view keeps trees", tc.name)
		}
		checkShortest(t, tc.name+" without link", view, pairs[:len(tc.base.Net.PoPs)-1], 1, 3)

		if mustEngine(t, ctxs[1], Options{}).trees == filled.trees {
			t.Fatalf("%s: two New engines share trees", tc.name)
		}
		added := unlinkedPair(tc.base.Net)
		grown, err := filled.WithLink(added)
		if err != nil {
			t.Fatalf("%s: WithLink(%v): %v", tc.name, added, err)
		}
		if grown.trees == nil || grown.trees == filled.trees {
			t.Fatalf("%s: WithLink does not start its own trees", tc.name)
		}
	}
}

// unlinkedPair returns the first PoP pair, in index order, that no link
// joins.
func unlinkedPair(net *topology.Network) topology.Link {
	for a := range net.PoPs {
		for b := a + 1; b < len(net.PoPs); b++ {
			if !net.HasLink(a, b) {
				return topology.Link{A: a, B: b}
			}
		}
	}
	panic("core: complete graph")
}
