package obs

import (
	"sync"
	"testing"
)

func TestRequestIDsDeterministicWhenSeeded(t *testing.T) {
	a, b := NewRequestIDs(42), NewRequestIDs(42)
	for i := 0; i < 100; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("id %d diverged: %q vs %q", i, ga, gb)
		}
		if len(ga) != 16 {
			t.Fatalf("id %q: want 16 hex chars", ga)
		}
		for _, c := range ga {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("id %q: non-hex character %q", ga, c)
			}
		}
	}
	if NewRequestIDs(42).Next() == NewRequestIDs(43).Next() {
		t.Fatal("different seeds produced the same first id")
	}
}

func TestRequestIDsUniqueUnderConcurrency(t *testing.T) {
	g := NewRequestIDs(1)
	const workers, per = 8, 200
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids[w] = append(ids[w], g.Next())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[string]bool, workers*per)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate id %q", id)
			}
			seen[id] = true
		}
	}
}

func TestRequestIDsNil(t *testing.T) {
	var g *RequestIDs
	if got := g.Next(); got != "" {
		t.Fatalf("nil generator returned %q", got)
	}
}

// TestRequestIDsPinned pins the seeded ID stream to values captured before
// the generator moved onto the shared stats.SplitMix64.
func TestRequestIDsPinned(t *testing.T) {
	g := NewRequestIDs(42)
	for i, want := range []string{"bdd732262feb6e95", "28efe333b266f103", "47526757130f9f52", "581ce1ff0e4ae394"} {
		if got := g.Next(); got != want {
			t.Fatalf("id %d = %q, want %q", i, got, want)
		}
	}
}
