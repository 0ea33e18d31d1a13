//go:build !race

package core

import "testing"

// The race detector drops pooled search space at random, so this pin
// builds without it.

// TestBoundRowFillAllocs pins that filling a target's bound row allocates
// the row and nothing more: its entries and the slice header its slot
// points to. Both sweeps run on pooled scratch space, and no fill builds
// an adjacency of its own.
func TestBoundRowFillAllocs(t *testing.T) {
	e := mustEngine(t, gridNet(6, 7, 3), Options{})
	e.boundRow(0) // allocates the slot array and warms the search pool
	allocs := testing.AllocsPerRun(100, func() {
		e.rows.slots[5].Store(nil)
		e.boundRow(5)
	})
	if allocs != 2 {
		t.Errorf("a row fill allocates %.1f objects, want 2", allocs)
	}
}

// TestPairQueryAllocs pins that a warm point query allocates its answer's
// path and nothing more: RiskRoutePair once its target's bound row is
// filled, ShortestPair once its source's tree is swept. The searches run on
// pooled scratch space, so neither their heap nor their list of touched
// nodes grows per query.
func TestPairQueryAllocs(t *testing.T) {
	e := mustEngine(t, gridNet(6, 7, 3), Options{})
	n := e.N()
	pair := func(k int) (int, int) { return k % n, (k*17 + 5) % n }
	for k := 0; k < n; k++ {
		i, j := pair(k)
		e.RiskRoutePair(i, j)
		e.ShortestPair(i, j)
	}
	for name, query := range map[string]func(i, j int) PairResult{
		"RiskRoutePair": e.RiskRoutePair,
		"ShortestPair":  e.ShortestPair,
	} {
		k := 0
		allocs := testing.AllocsPerRun(100, func() {
			i, j := pair(k)
			k++
			if query(i, j).Path == nil {
				t.Fatalf("%s(%d, %d) found no path", name, i, j)
			}
		})
		if allocs != 1 {
			t.Errorf("a warm %s allocates %.2f objects, want 1 (the path)", name, allocs)
		}
	}
}
