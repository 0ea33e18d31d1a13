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
