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
