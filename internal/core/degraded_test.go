package core

import (
	"math"
	"sort"
	"testing"

	"riskroute/internal/resilience"
	"riskroute/internal/risk"
)

// TestEngineDisconnectedTopology cuts a 3×4 lattice into a 3-PoP column and
// a 9-PoP block and checks the engine routes within components, skips the
// split pairs, and reports the fragmentation.
func TestEngineDisconnectedTopology(t *testing.T) {
	ctx := gridNet(3, 4, 9)
	cols := 4
	var kept []int
	for li, l := range ctx.Net.Links {
		if (l.A%cols == 0) != (l.B%cols == 0) {
			continue // cut every link crossing out of column 0
		}
		kept = append(kept, li)
	}
	links := ctx.Net.Links
	ctx.Net.Links = ctx.Net.Links[:0]
	for _, li := range kept {
		ctx.Net.Links = append(ctx.Net.Links, links[li])
	}

	h := resilience.NewHealth()
	e := mustEngine(t, ctx, Options{Health: h})
	if e.Components() != 2 {
		t.Fatalf("Components = %d, want 2", e.Components())
	}
	// 12 PoPs → 66 unordered pairs; 3-PoP column has 3, 9-PoP block has 36.
	if got, want := e.UnreachablePairs(), 66-3-36; got != want {
		t.Errorf("UnreachablePairs = %d, want %d", got, want)
	}
	if !h.Degraded() {
		t.Error("fragmentation not recorded in health")
	}

	// Routing still works within a component...
	rr := e.RiskRoutePair(1, 11)
	if rr.Path == nil || math.IsInf(rr.BitRiskMiles, 1) {
		t.Error("intra-component pair should route")
	}
	// ...and cross-component pairs report unreachable, not garbage.
	if cross := e.RiskRoutePair(0, 1); cross.Path != nil || !math.IsInf(cross.BitRiskMiles, 1) {
		t.Errorf("cross-component pair returned %+v, want unreachable", cross)
	}

	// The aggregate evaluation covers exactly the reachable ordered pairs.
	r := e.Evaluate()
	if want := 2 * (3 + 36); r.Pairs != want {
		t.Errorf("Evaluate aggregated %d pairs, want %d", r.Pairs, want)
	}
	if r.RiskReduction < 0 || math.IsNaN(r.RiskReduction) {
		t.Errorf("RiskReduction = %v on fragmented topology", r.RiskReduction)
	}
}

// serialTotalBitRiskSubset is the serial TotalBitRiskSubset the per-source
// pass replaced, kept as its oracle: sources in order, each pair claimed once
// in a map, and destinations sorted within their bucket.
func serialTotalBitRiskSubset(e *Engine, sources, dests []int) float64 {
	inDest := make(map[int]bool, len(dests))
	for _, d := range dests {
		inDest[d] = true
	}
	seen := make(map[[2]int]bool)
	total := 0.0
	for _, i := range sources {
		sMiles, sEntered := e.sweep(i, 0)
		byBucket := make(map[int][]int)
		for j := range inDest {
			key := [2]int{min(i, j), max(i, j)}
			if j == i || seen[key] {
				continue
			}
			seen[key] = true
			b := e.bucketOf(e.Ctx.Alpha(i, j))
			byBucket[b] = append(byBucket[b], j)
		}
		for _, b := range sortedInts(byBucket) {
			js := byBucket[b]
			sort.Ints(js)
			miles, entered := e.sweep(i, e.buckets[b])
			for _, j := range js {
				if !math.IsInf(miles[j], 1) {
					total += minCost(e.Ctx.Alpha(i, j), miles[j], entered[j], sMiles[j], sEntered[j])
				}
			}
		}
	}
	return total
}

// TestTotalBitRiskSubsetMatchesSerialLoop holds the parallel
// TotalBitRiskSubset to the serial loop with repeated sources and
// overlapping destinations: the bits must match at any worker count.
func TestTotalBitRiskSubsetMatchesSerialLoop(t *testing.T) {
	subsets := []struct{ sources, dests []int }{
		{[]int{0, 3, 7, 8, 3, 11}, []int{3, 5, 8, 10, 11, 8, 0}},
		{[]int{11, 8, 7, 8, 0}, []int{0, 1, 2, 3, 7, 7, 8, 11}},
		{[]int{5, 6, 7, 3, 9, 5}, []int{0, 5, 6, 7, 8, 9, 10, 11}},
	}
	contexts := map[string]*risk.Context{"grid": gridNet(5, 5, 41), "fragmented": fragmentedGrid(43)}
	for cname, ctx := range contexts {
		for si, sub := range subsets {
			sources, dests := sub.sources, sub.dests
			want := serialTotalBitRiskSubset(mustEngine(t, ctx, Options{}), sources, dests)
			for _, workers := range []int{1, 2, 3, 8} {
				e := mustEngine(t, ctx, Options{Workers: workers})
				if got := e.TotalBitRiskSubset(sources, dests); !sameBits(got, want) {
					t.Fatalf("%s/subset %d, workers %d: TotalBitRiskSubset = %v, serial loop %v",
						cname, si, workers, got, want)
				}
			}
		}
	}
}
