package obs

import "sync"

// Ring is a fixed-capacity, concurrency-safe buffer that keeps the last N
// values added — the one bounded log behind the flight recorder, the
// /debug/requests sample, and the serving daemon's swap timeline.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
	full bool
}

// NewRing returns a ring retaining the last n values (n must be positive).
func NewRing[T any](n int) *Ring[T] { return &Ring[T]{buf: make([]T, n)} }

// Add records v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// Records returns a copy of the retained values, oldest first.
func (r *Ring[T]) Records() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []T
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}
