//go:build !race

package graph

import (
	"testing"

	"riskroute/internal/stats"
)

// The race detector drops pooled values at random, so this pin builds
// without it.

// TestSweepEnteringAllocs pins that SweepEntering runs on pooled scratch
// space: once the pool holds a search sized for the graph, a sweep
// allocates nothing.
func TestSweepEnteringAllocs(t *testing.T) {
	rng := stats.NewRNG(5)
	edges, slopes := randomAffineEdges(rng, 60, false)
	a := NewAffine(60, edges, slopes)
	cost := make([]float64, 60)
	for v := range cost {
		cost[v] = rng.Float64()
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.SweepEntering(rng.Intn(60), cost).Release()
	})
	if allocs != 0 {
		t.Errorf("SweepEntering allocates %.1f objects per sweep, want 0", allocs)
	}
}

// TestSearchAllocs pins that Route, RouteGuided and Sweep run on pooled
// scratch space too: once the pool holds a search sized for the graph, a
// search and its Release allocate nothing, so neither the heap nor the
// list of touched nodes grows per search.
func TestSearchAllocs(t *testing.T) {
	rng := stats.NewRNG(5)
	edges, slopes := randomAffineEdges(rng, 60, false)
	a := NewAffine(60, edges, slopes)
	zero := func(int) float64 { return 0 }
	for name, search := range map[string]func(u, v int) *Search{
		"Route": func(u, v int) *Search { return a.Route(u, v, 0.5) },
		"RouteGuided": func(u, v int) *Search {
			s, _ := a.RouteGuided(u, v, 0.5, zero)
			return s
		},
		"Sweep": func(u, _ int) *Search { return a.Sweep(u, 0.5) },
	} {
		allocs := testing.AllocsPerRun(100, func() {
			search(rng.Intn(60), rng.Intn(60)).Release()
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f objects per search, want 0", name, allocs)
		}
	}
}
