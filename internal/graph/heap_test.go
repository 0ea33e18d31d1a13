package graph

import (
	"testing"

	"riskroute/internal/stats"
)

// swapHeap is the textbook binary min-heap: two parallel slices whose
// entries swap at every sift level. It is the oracle for heap, which must
// pop exactly what it pops.
type swapHeap struct {
	nodes []int32
	prio  []float64
}

func (h *swapHeap) len() int { return len(h.nodes) }

func (h *swapHeap) push(node int, p float64) {
	h.nodes = append(h.nodes, int32(node))
	h.prio = append(h.prio, p)
	i := len(h.nodes) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *swapHeap) pop() (int, float64) {
	node, p := h.nodes[0], h.prio[0]
	last := len(h.nodes) - 1
	h.swap(0, last)
	h.nodes = h.nodes[:last]
	h.prio = h.prio[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.prio[l] < h.prio[smallest] {
			smallest = l
		}
		if r < last && h.prio[r] < h.prio[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return int(node), p
}

func (h *swapHeap) swap(i, j int) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
}

// TestHeapMatchesSwappingHeap drives heap and swapHeap through the same
// random interleaving of pushes and pops and requires every pop to return
// the same node and priority. Priorities come from a handful of values,
// zero among them (every key is zero on a third of the seeds), so equal
// keys are common and the order among them rests on the exact comparisons
// each sift makes. Runs alternate phases that mostly push and mostly pop,
// so the heaps grow to hundreds of entries, drain to empty and refill.
func TestHeapMatchesSwappingHeap(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := stats.NewRNG(seed)
		keys := []float64{0, 0, 1, 2, 2.5, Inf}
		if seed%3 == 0 {
			keys = []float64{0}
		}
		var h heap
		var want swapHeap
		ops := 50 + rng.Intn(3000)
		phase := 20 + rng.Intn(300)
		for op := 0; op < ops; op++ {
			pushPct := 80 // of 100 ops, in a growing phase
			if op/phase%2 == 1 {
				pushPct = 30
			}
			if want.len() == 0 || rng.Intn(100) < pushPct {
				node := rng.Intn(1000)
				p := keys[rng.Intn(len(keys))]
				if seed%3 == 1 {
					p += float64(rng.Intn(4)) * 0.125
				}
				h.push(node, p)
				want.push(node, p)
			} else {
				n, p := h.pop()
				wn, wp := want.pop()
				if n != wn || !sameBits(p, wp) {
					t.Fatalf("seed %d op %d: pop (%d, %v), swapping heap pops (%d, %v)", seed, op, n, p, wn, wp)
				}
			}
			if len(h) != want.len() {
				t.Fatalf("seed %d op %d: %d entries, swapping heap holds %d", seed, op, len(h), want.len())
			}
		}
		for want.len() > 0 {
			n, p := h.pop()
			wn, wp := want.pop()
			if n != wn || !sameBits(p, wp) {
				t.Fatalf("seed %d drain: pop (%d, %v), swapping heap pops (%d, %v)", seed, n, p, wn, wp)
			}
		}
		if len(h) != 0 {
			t.Fatalf("seed %d: %d entries left after the swapping heap drained", seed, len(h))
		}
	}
}
