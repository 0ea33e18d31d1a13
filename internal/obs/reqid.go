package obs

// Request-scoped tracing identifiers. A RequestIDs generator hands out
// 16-hex-character IDs from a SplitMix64 stream over an atomic counter:
// seeded explicitly it is fully deterministic (tests and replay harnesses
// pin the exact ID sequence), seeded with 0 it draws a random starting
// point per process. Each ID heads a ReqScope, the mutable per-request
// record the serving layer carries on its status recorder and fills in as a
// request moves through admission, cache, and engine stages.

import (
	"crypto/rand"
	"encoding/binary"
	"sync/atomic"
	"time"

	"riskroute/internal/stats"
)

// RequestIDs generates request identifiers. The zero value starts from
// state 0 (deterministic); NewRequestIDs(0) randomizes the stream. A nil
// generator returns empty IDs, following the package's nil discipline.
type RequestIDs struct {
	state atomic.Uint64
}

// NewRequestIDs returns a generator. A non-zero seed pins the exact ID
// sequence (deterministic-when-seeded); seed 0 draws a random starting
// point so concurrent daemons do not collide.
func NewRequestIDs(seed uint64) *RequestIDs {
	g := &RequestIDs{}
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		}
		// On the (never observed) failure path the stream starts at 0 —
		// still unique within the process, just predictable.
	}
	g.state.Store(seed)
	return g
}

// Next returns the next ID: 16 lowercase hex characters ("" on nil). Safe
// for concurrent use; the underlying SplitMix64 stream never repeats within
// 2^64 calls.
func (g *RequestIDs) Next() string {
	if g == nil {
		return ""
	}
	// The atomic add claims one step; SplitMix64 mixes from the state
	// before it.
	x := stats.SplitMix64(g.state.Add(stats.Gamma) - stats.Gamma)
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = digits[x&0xf]
		x >>= 4
	}
	return string(buf[:])
}

// ReqScope is the per-request trace record. The serving middleware keeps
// one per request on its pooled status recorder; downstream stages fill in
// what they know (queue wait at admission, cache hit at lookup, generation
// at snapshot load). A single goroutine owns the request end to end, so the
// fields need no locking.
type ReqScope struct {
	// ID is the request identifier echoed as the X-Request-Id header.
	ID string
	// QueueWait is how long the request waited for an admission slot.
	QueueWait time.Duration
	// CacheHit reports whether the result came from the result cache.
	CacheHit bool
	// Generation is the world snapshot the request was answered from
	// (0 when the endpoint touches no snapshot).
	Generation uint64
}
