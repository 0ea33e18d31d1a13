package ingest

import (
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b := newBreaker(3, 10*time.Second, clk.now)

	// Closed: failures below the threshold don't trip.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker blocked poll %d", i)
		}
		if b.Failure() {
			t.Fatalf("failure %d tripped below threshold", i+1)
		}
	}
	if st, fails, trips := b.Snapshot(); st != BreakerClosed || fails != 2 || trips != 0 {
		t.Fatalf("after 2 failures: %v/%d/%d", st, fails, trips)
	}

	// The threshold'th consecutive failure trips it.
	if !b.Failure() {
		t.Fatal("threshold failure did not trip")
	}
	if st, _, trips := b.Snapshot(); st != BreakerOpen || trips != 1 {
		t.Fatalf("after trip: %v trips=%d", st, trips)
	}

	// Open: polls blocked until the cooldown elapses.
	if b.Allow() {
		t.Fatal("open breaker allowed a poll")
	}
	clk.advance(9 * time.Second)
	if b.Allow() {
		t.Fatal("open breaker allowed a poll 1s before cooldown")
	}
	clk.advance(time.Second)

	// Cooldown elapsed: exactly one probe gets through.
	if !b.Allow() {
		t.Fatal("half-open transition blocked the probe")
	}
	if st, _, _ := b.Snapshot(); st != BreakerHalfOpen {
		t.Fatalf("state after probe admitted: %v", st)
	}
	if b.Allow() {
		t.Fatal("second caller admitted while probe in flight")
	}

	// Failed probe re-opens (and counts as a trip) with a fresh cooldown.
	if !b.Failure() {
		t.Fatal("failed probe did not re-open")
	}
	if st, _, trips := b.Snapshot(); st != BreakerOpen || trips != 2 {
		t.Fatalf("after failed probe: %v trips=%d", st, trips)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker allowed a poll immediately")
	}

	// Successful probe closes and resets the streak.
	clk.advance(10 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe blocked")
	}
	b.Success()
	if st, fails, _ := b.Snapshot(); st != BreakerClosed || fails != 0 {
		t.Fatalf("after recovery: %v fails=%d", st, fails)
	}
	// A single new failure must not trip — the streak restarted.
	if b.Failure() {
		t.Fatal("first failure after recovery tripped")
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := newBreaker(0, 0, nil)
	if b.threshold != 5 || b.cooldown != 30*time.Second || b.now == nil {
		t.Fatalf("defaults: threshold=%d cooldown=%v", b.threshold, b.cooldown)
	}
}

func TestBackoffGrowthCapAndJitter(t *testing.T) {
	bo := &backoff{base: 100 * time.Millisecond, max: 2 * time.Second, seed: 42}

	// Healthy: the base interval, no jitter.
	if d := bo.Next(); d != 100*time.Millisecond {
		t.Fatalf("healthy delay %v", d)
	}

	// Each failure doubles the envelope; jitter keeps the delay in
	// [envelope/2, envelope].
	envelope := 100 * time.Millisecond
	for i := 1; i <= 8; i++ {
		bo.Fail()
		d := bo.Next()
		if envelope < 2*time.Second {
			if d < envelope/2 || d > envelope {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, d, envelope/2, envelope)
			}
		} else {
			// Capped: the envelope stops growing.
			if d < time.Second || d > 2*time.Second {
				t.Fatalf("attempt %d: capped delay %v outside [1s, 2s]", i, d)
			}
		}
		if envelope < 2*time.Second {
			envelope *= 2
		}
	}

	// Determinism: the same (seed, attempt) always yields the same delay.
	a := &backoff{base: 100 * time.Millisecond, max: 2 * time.Second, seed: 42, attempt: 3}
	b := &backoff{base: 100 * time.Millisecond, max: 2 * time.Second, seed: 42, attempt: 3}
	if a.Next() != b.Next() {
		t.Fatal("same seed+attempt gave different delays")
	}
	c := &backoff{base: 100 * time.Millisecond, max: 2 * time.Second, seed: 43, attempt: 3}
	if a.Next() == c.Next() {
		t.Fatal("different seeds gave identical jitter (suspicious)")
	}

	// Recovery resets to the base interval.
	bo.OK()
	if d := bo.Next(); d != 100*time.Millisecond {
		t.Fatalf("post-recovery delay %v", d)
	}
}

// TestBackoffJitterPinned pins the jittered delays for seed 42 to values
// captured before the jitter moved onto the shared stats.SplitMix64.
func TestBackoffJitterPinned(t *testing.T) {
	for i, want := range []time.Duration{86408938, 121335876, 213716178, 692079709, 1186569421} {
		bo := &backoff{base: 100 * time.Millisecond, max: 2 * time.Second, seed: 42, attempt: i + 1}
		if got := bo.Next(); got != want {
			t.Fatalf("attempt %d: delay %d, want %d", i+1, got, want)
		}
	}
}
