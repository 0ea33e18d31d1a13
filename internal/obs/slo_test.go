package obs

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// fakeClock is an injectable clock advanced by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func burnEq(got, want float64) bool          { return math.Abs(got-want) < 1e-9 }

// TestSLOExactWindowValues pins the burn-rate math under an injected clock:
// a known event pattern must reproduce exact per-window totals and burn rates.
func TestSLOExactWindowValues(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{
		LatencyObjective: 100 * time.Millisecond,
		LatencyTarget:    0.99,  // latency budget 1%
		ErrorTarget:      0.999, // error budget 0.1%
		Now:              clk.now,
	})

	// Minute 0: 100 good fast requests.
	for i := 0; i < 100; i++ {
		s.Record(10*time.Millisecond, false)
	}
	// 10 minutes later (outside 5m, inside 1h): 80 fast good, 10 errors,
	// 10 slow.
	clk.advance(10 * time.Minute)
	for i := 0; i < 80; i++ {
		s.Record(10*time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		s.Record(10*time.Millisecond, true)
	}
	for i := 0; i < 10; i++ {
		s.Record(500*time.Millisecond, false)
	}
	// Another 10 minutes later (so the previous batch ages out of 5m but
	// stays inside 1h): 40 good, 5 errors, 5 slow.
	clk.advance(10 * time.Minute)
	for i := 0; i < 40; i++ {
		s.Record(10*time.Millisecond, false)
	}
	for i := 0; i < 5; i++ {
		s.Record(10*time.Millisecond, true)
	}
	for i := 0; i < 5; i++ {
		s.Record(500*time.Millisecond, false)
	}

	snap := s.Snapshot()
	if len(snap.Windows) != 2 {
		t.Fatalf("want 2 windows, got %d", len(snap.Windows))
	}

	w5 := snap.Windows[0]
	if w5.Window != "5m" || w5.Total != 50 || w5.Errors != 5 || w5.Slow != 5 {
		t.Fatalf("5m window = %+v, want total=50 errors=5 slow=5", w5)
	}
	// error ratio 5/50 = 0.1; burn = 0.1 / 0.001 = 100.
	if !burnEq(w5.ErrorBurnRate, 100) {
		t.Errorf("5m error burn = %v, want 100", w5.ErrorBurnRate)
	}
	// slow ratio 5/50 = 0.1; burn = 0.1 / 0.01 = 10.
	if !burnEq(w5.LatencyBurnRate, 10) {
		t.Errorf("5m latency burn = %v, want 10", w5.LatencyBurnRate)
	}

	w60 := snap.Windows[1]
	if w60.Window != "1h" || w60.Total != 250 || w60.Errors != 15 || w60.Slow != 15 {
		t.Fatalf("1h window = %+v, want total=250 errors=15 slow=15", w60)
	}
	// error ratio 15/250 = 0.06; burn = 0.06 / 0.001 = 60.
	if !burnEq(w60.ErrorBurnRate, 60) {
		t.Errorf("1h error burn = %v, want 60", w60.ErrorBurnRate)
	}
	// slow ratio 15/250 = 0.06; burn = 0.06 / 0.01 = 6.
	if !burnEq(w60.LatencyBurnRate, 6) {
		t.Errorf("1h latency burn = %v, want 6", w60.LatencyBurnRate)
	}

	// Advance past the 1h window: everything ages out.
	clk.advance(61 * time.Minute)
	snap = s.Snapshot()
	for _, w := range snap.Windows {
		if w.Total != 0 || w.ErrorBurnRate != 0 || w.LatencyBurnRate != 0 {
			t.Errorf("window %s not aged out: %+v", w.Window, w)
		}
	}
}

func TestSLORingReuseResetsStaleBuckets(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{Now: clk.now})
	s.Record(time.Millisecond, true)
	// Wrap the ring (len = 3601 for the 1h window): the same slot is reused
	// for a later second and must not inherit the old error count.
	clk.advance(time.Hour + time.Second)
	s.Record(time.Millisecond, false)
	for _, w := range s.Snapshot().Windows {
		if w.Total != 1 || w.Errors != 0 {
			t.Fatalf("stale bucket leaked: %+v", w)
		}
	}
}

func TestSLOGaugesExported(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry()
	s := NewSLO(SLOConfig{
		ErrorTarget: 0.99, // budget 1%
		Now:         clk.now,
		Metrics:     r,
	})
	for i := 0; i < 99; i++ {
		s.Record(time.Millisecond, false)
	}
	s.Record(time.Millisecond, true)
	s.Snapshot() // refreshes gauges
	snap := r.Snapshot()
	if got := snap.Gauges["slo.error.burn_rate.5m"]; !burnEq(got, 1) {
		t.Errorf("slo.error.burn_rate.5m = %v, want 1 (1%% errors on 1%% budget)", got)
	}
	if _, ok := snap.Histograms["slo.latency_seconds"]; !ok {
		t.Error("slo.latency_seconds histogram not registered")
	}
}

func TestSLOQuantilesInSnapshot(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{Now: clk.now})
	for i := 0; i < 100; i++ {
		s.Record(5*time.Millisecond, false)
	}
	snap := s.Snapshot()
	// All observations land in the (0.0025, 0.005] latency bucket; p50 must
	// land inside it.
	if snap.P50Seconds <= 0.0025 || snap.P50Seconds > 0.005 {
		t.Errorf("p50 = %v, want within (0.0025, 0.005]", snap.P50Seconds)
	}
	if snap.P99Seconds < snap.P50Seconds {
		t.Errorf("p99 %v < p50 %v", snap.P99Seconds, snap.P50Seconds)
	}
}

func TestSLONilAndDefaults(t *testing.T) {
	var s *SLO
	s.Record(time.Second, true) // must not panic
	if snap := s.Snapshot(); len(snap.Windows) != 0 {
		t.Fatalf("nil SLO snapshot = %+v", snap)
	}
	d := NewSLO(SLOConfig{})
	if d.cfg.LatencyObjective != 100*time.Millisecond || d.cfg.LatencyTarget != 0.99 ||
		d.cfg.ErrorTarget != 0.999 || len(d.Snapshot().Windows) != 2 {
		t.Fatalf("defaults not applied: %+v", d.cfg)
	}
	// Any target outside (0, 1) takes the default. NaN fails every
	// comparison, so it needs the same treatment; otherwise every burn rate
	// is NaN and the /v1/slo document cannot be encoded.
	for _, target := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, -0.5, 2} {
		s := NewSLO(SLOConfig{LatencyTarget: target, ErrorTarget: target, Now: newFakeClock().now})
		s.Record(time.Millisecond, true)
		s.Record(time.Second, false)
		snap := s.Snapshot()
		if snap.LatencyTarget != 0.99 || snap.ErrorTarget != 0.999 {
			t.Errorf("target %v: snapshot targets %v / %v, want the defaults 0.99 / 0.999",
				target, snap.LatencyTarget, snap.ErrorTarget)
		}
		if _, err := json.Marshal(snap); err != nil {
			t.Errorf("target %v: snapshot does not encode: %v", target, err)
		}
	}
}

func TestWindowLabel(t *testing.T) {
	for _, tc := range []struct {
		w    time.Duration
		want string
	}{
		{5 * time.Minute, "5m"},
		{time.Hour, "1h"},
		{2 * time.Hour, "2h"},
	} {
		if got := windowLabel(tc.w); got != tc.want {
			t.Errorf("windowLabel(%v) = %q, want %q", tc.w, got, tc.want)
		}
	}
}
