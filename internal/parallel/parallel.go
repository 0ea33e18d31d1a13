// Package parallel provides the deterministic data-parallel primitives the
// hot paths share: an indexed, slot-writing Map/ForEach pair and fixed-size
// chunking for order-stable floating-point reductions.
//
// # Determinism rule
//
// Every helper here is shaped so that the numeric result of a computation is
// a pure function of the inputs, never of the worker count or the
// scheduler's interleaving. Two disciplines make that hold:
//
//   - Slot writing: Map and ForEach hand each index to exactly one goroutine
//     and each goroutine writes only its own output slot. Callers then reduce
//     the slots in a fixed (index) order, so float sums associate identically
//     at any parallelism level.
//
//   - Fixed chunking: when a reduction must be sharded (per-worker partial
//     accumulators), the shard boundaries must come from Chunks with a
//     constant chunk size — never from the worker count — and the partials
//     must be merged in chunk order. Worker count then only changes which
//     goroutine computes a chunk, not what any chunk contains.
//
// kde.SelectBandwidth, kde.Rasterize, population.Assign, and the core
// routing engine all build on these primitives; DESIGN.md section 8 states
// the rule in full.
package parallel

import (
	"runtime"
	"sync"
)

// Workers resolves a worker-count option against the job size: zero (or
// negative) means GOMAXPROCS, and there is never a reason to run more
// workers than items.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map evaluates fn over 0..n-1 with at most workers goroutines and returns
// the results index-aligned, so callers can reduce them in a fixed order and
// keep floating-point results identical at any parallelism level.
func Map[T any](n, workers int, fn func(i int) T) []T {
	workers = Workers(n, workers)
	out := make([]T, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	// Buffer the whole work list and close the channel before any worker
	// starts: the producer never blocks handing indices over one rendezvous
	// at a time, and workers drain without a send-side goroutine to schedule
	// against.
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// ForEach runs fn over 0..n-1 with at most workers goroutines. fn must write
// only to state owned by index i (its "slot"); any cross-index reduction
// belongs to the caller, after ForEach returns, in index order.
func ForEach(n, workers int, fn func(i int)) {
	Map(n, workers, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}

// Chunk is a half-open index range [Lo, Hi).
type Chunk struct {
	Lo, Hi int
}

// Chunks splits [0, n) into contiguous ranges of at most size items. The
// boundaries depend only on n and size — never on the worker count — so
// per-chunk partial reductions merged in chunk order are bit-identical at
// any parallelism level.
func Chunks(n, size int) []Chunk {
	if size <= 0 {
		size = 1
	}
	if n <= 0 {
		return nil
	}
	out := make([]Chunk, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Chunk{Lo: lo, Hi: hi})
	}
	return out
}
