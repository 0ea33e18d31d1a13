package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestRing(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Records(); len(got) != 0 {
		t.Fatalf("empty ring returned %v", got)
	}
	r.Add(1)
	r.Add(2)
	if got := r.Records(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("partial fill = %v, want [1 2]", got)
	}
	for v := 3; v <= 7; v++ {
		r.Add(v)
	}
	got := r.Records()
	if !reflect.DeepEqual(got, []int{5, 6, 7}) {
		t.Fatalf("after wrap = %v, want the newest three oldest first", got)
	}
	got[0] = 99 // the read is a copy
	if r.Records()[0] != 5 {
		t.Fatal("Records aliases the ring's buffer")
	}

	// Concurrent writers and readers (run under -race): the ring stays full
	// and every read is a consistent copy.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(i)
				if n := len(r.Records()); n != 3 {
					t.Errorf("concurrent read returned %d values, want 3", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}
