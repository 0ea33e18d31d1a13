package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{10, 0, min(10, runtime.GOMAXPROCS(0))},
		{10, -3, min(10, runtime.GOMAXPROCS(0))},
		{10, 4, 4},
		{2, 8, 2},
		{0, 4, 1},
		{5, 1, 1},
	}
	for _, c := range cases {
		if got := Workers(c.n, c.workers); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

func TestMapIndexAligned(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		got := Map(100, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	// A float reduction over slot-written results must be bit-identical for
	// every worker count: the reduction happens in index order after Map.
	sum := func(workers int) float64 {
		parts := Map(1000, workers, func(i int) float64 {
			return 1.0 / float64(i+1)
		})
		s := 0.0
		for _, p := range parts {
			s += p
		}
		return s
	}
	want := sum(1)
	for _, w := range []int{2, 3, 8, 16} {
		if got := sum(w); got != want {
			t.Errorf("workers=%d: sum = %x, want %x (bit-exact)", w, got, want)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	var counts [257]int64
	ForEach(len(counts), 8, func(i int) {
		atomic.AddInt64(&counts[i], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Errorf("index %d visited %d times", i, c)
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	if got := Map(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Errorf("Map(0) = %v", got)
	}
	ForEach(0, 4, func(i int) { t.Errorf("ForEach(0) called fn(%d)", i) })
}

func TestChunksFixedBoundaries(t *testing.T) {
	got := Chunks(10, 4)
	want := []Chunk{{0, 4}, {4, 8}, {8, 10}}
	if len(got) != len(want) {
		t.Fatalf("Chunks(10,4) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("chunk %d = %v, want %v", i, got[i], want[i])
		}
	}
	if got := Chunks(0, 4); got != nil {
		t.Errorf("Chunks(0,4) = %v, want nil", got)
	}
	// Degenerate size clamps to 1 rather than looping forever.
	if got := Chunks(3, 0); len(got) != 3 {
		t.Errorf("Chunks(3,0) = %v, want 3 unit chunks", got)
	}
}
