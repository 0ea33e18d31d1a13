package ingest

import (
	"math"
	"sync"
	"time"

	"riskroute/internal/stats"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: the feed is healthy; every poll proceeds.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures tripped the breaker; polls are
	// skipped until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe poll is in
	// flight. Success closes the breaker, failure re-opens it.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is a classic three-state circuit breaker over the feed: it trips
// after Threshold consecutive poll failures, stays open for Cooldown, then
// half-opens to let a single probe through. The zero-value clock is
// time.Now; tests inject a fake. All methods are concurrency-safe.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive failures while closed / half-open
	openedAt time.Time
	trips    uint64
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a poll attempt may proceed, transitioning
// Open→HalfOpen when the cooldown has elapsed. In HalfOpen only the call
// that performed the transition proceeds; the breaker stays half-open until
// that probe reports back.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // HalfOpen: a probe is already out
		return false
	}
}

// Success reports a successful poll: any state returns to Closed and the
// failure streak resets.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
}

// Failure reports a failed poll. It returns true when this failure tripped
// the breaker (Closed→Open on the threshold'th consecutive failure, or a
// failed HalfOpen probe re-opening it).
func (b *breaker) Failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.trips++
		return true
	case BreakerClosed:
		if b.fails >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.trips++
			return true
		}
	}
	return false
}

// Snapshot returns the state, consecutive-failure count, and lifetime trip
// count under one lock acquisition.
func (b *breaker) Snapshot() (BreakerState, int, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.fails, b.trips
}

// backoff computes the delay before the next poll attempt: the base
// interval while healthy, exponential with deterministic jitter after
// failures, capped at max. Jitter is a pure function of (seed, attempt), so
// a replayed fault schedule waits identically — the same determinism rule
// the resilience injector follows.
type backoff struct {
	base, max time.Duration
	seed      uint64
	attempt   int // consecutive failures
}

// Next returns the current delay and the failure streak it reflects.
func (bo *backoff) Next() time.Duration {
	if bo.attempt == 0 {
		return bo.base
	}
	exp := float64(bo.base) * math.Pow(2, float64(bo.attempt-1))
	capped := float64(bo.max)
	if exp > capped {
		exp = capped
	}
	// Full jitter in [exp/2, exp], deterministic in (seed, attempt).
	u := float64(stats.SplitMix64(bo.seed^uint64(bo.attempt))) / math.MaxUint64
	return time.Duration(exp/2 + exp/2*u)
}

// Fail advances the failure streak; OK resets it.
func (bo *backoff) Fail() { bo.attempt++ }
func (bo *backoff) OK()   { bo.attempt = 0 }
