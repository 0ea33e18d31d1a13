package obs

// SLO engine: rolling multi-window burn-rate tracking over latency and
// error-ratio objectives, in the style of the Google SRE workbook's
// multi-window multi-burn-rate alerts.
//
// # Burn-rate math
//
// An objective "99.9% of requests succeed" leaves an error budget of
// 1 - 0.999 = 0.1% of requests. Over a window, the burn rate is the
// observed bad-event ratio divided by that budget:
//
//	burn = (bad / total) / (1 - target)
//
// Burn 1.0 means the budget is being consumed exactly at the sustainable
// rate; burn 14.4 over 1h is the classic "page now" threshold (it exhausts
// a 30-day budget in ~2 days). Two objectives are tracked: error ratio
// (responses counted bad by the caller, conventionally 5xx) and latency
// (requests slower than the objective threshold). Both are computed over
// two fixed windows, 5m and 1h: the short window for fast detection and
// the long one to keep a brief spike from paging.
//
// # Mechanics
//
// Events land in a ring of per-second buckets sized to the 1h window.
// Each bucket remembers which second it represents, so stale slots are
// skipped rather than zeroed on a timer — there is no background goroutine,
// and with an injected clock every window sum is exactly reproducible
// (pinned by the unit tests). A nil *SLO ignores all operations, matching
// the package's nil discipline.

import (
	"fmt"
	"sync"
	"time"
)

// sloWindows are the rolling burn-rate windows, ascending; the ring is sized
// to the last.
var sloWindows = [...]time.Duration{5 * time.Minute, time.Hour}

// SLOConfig tunes an SLO engine. The zero value is fully usable: 100ms
// latency objective at 99%, 99.9% availability.
type SLOConfig struct {
	// LatencyObjective is the threshold above which a request counts
	// against the latency objective (default 100ms).
	LatencyObjective time.Duration
	// LatencyTarget is the fraction of requests that must beat the
	// objective (default 0.99). Values outside (0, 1) take the default.
	LatencyTarget float64
	// ErrorTarget is the availability objective: the fraction of requests
	// that must not be errors (default 0.999). Values outside (0, 1) take
	// the default.
	ErrorTarget float64
	// Now is the clock (tests inject a fake; nil means time.Now).
	Now func() time.Time
	// Metrics, when set, receives the burn rates as gauges
	// (slo.error.burn_rate.<window>, slo.latency.burn_rate.<window>,
	// refreshed on every Snapshot) and the latency distribution as the
	// slo.latency_seconds histogram.
	Metrics *Registry
	// LatencyHistogram, when set, is the distribution Record observes
	// instead of creating slo.latency_seconds — callers that already
	// maintain a request-latency histogram (the serving layer's
	// serve.request_seconds.all) share it so the hot path observes once.
	LatencyHistogram *Histogram
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.LatencyObjective <= 0 {
		c.LatencyObjective = 100 * time.Millisecond
	}
	if !(c.LatencyTarget > 0 && c.LatencyTarget < 1) {
		c.LatencyTarget = 0.99
	}
	if !(c.ErrorTarget > 0 && c.ErrorTarget < 1) {
		c.ErrorTarget = 0.999
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// sloBucket accumulates one second's events. sec identifies which second
// the slot currently holds, so a ring index reused an hour later is
// detected as stale and reset instead of polluting the new second.
type sloBucket struct {
	sec    int64
	total  int64
	errors int64
	slow   int64
}

// sloGauges are one window's exported burn-rate gauges.
type sloGauges struct {
	errorBurn   *Gauge
	latencyBurn *Gauge
}

// SLO tracks rolling burn rates for a latency and an error-ratio objective.
// Record is concurrency-safe; a nil *SLO ignores all operations.
type SLO struct {
	cfg  SLOConfig
	hist *Histogram // lifetime latency distribution (Quantile source)

	mu      sync.Mutex
	buckets []sloBucket
	gauges  []sloGauges // parallel to sloWindows
}

// NewSLO builds an SLO engine from cfg (zero value = defaults).
func NewSLO(cfg SLOConfig) *SLO {
	cfg = cfg.withDefaults()
	s := &SLO{
		cfg:     cfg,
		buckets: make([]sloBucket, int(sloWindows[len(sloWindows)-1]/time.Second)+1),
	}
	switch {
	case cfg.LatencyHistogram != nil:
		s.hist = cfg.LatencyHistogram
	case cfg.Metrics != nil:
		s.hist = cfg.Metrics.Histogram("slo.latency_seconds", LatencyBuckets())
	default:
		s.hist = newHistogram(LatencyBuckets())
	}
	if cfg.Metrics != nil {
		for _, w := range sloWindows {
			s.gauges = append(s.gauges, sloGauges{
				errorBurn:   cfg.Metrics.Gauge("slo.error.burn_rate." + windowLabel(w)),
				latencyBurn: cfg.Metrics.Gauge("slo.latency.burn_rate." + windowLabel(w)),
			})
		}
	}
	return s
}

// windowLabel renders a window for metric names: "5m", "1h".
func windowLabel(w time.Duration) string {
	if w%time.Hour == 0 {
		return fmt.Sprintf("%dh", w/time.Hour)
	}
	return fmt.Sprintf("%dm", w/time.Minute)
}

// Record accounts one request: its duration (fed to the latency objective
// and the quantile histogram) and whether it was an error (no-op on nil).
func (s *SLO) Record(d time.Duration, isError bool) {
	if s == nil {
		return
	}
	s.RecordAt(s.cfg.Now(), d, isError)
}

// RecordAt is Record with a caller-supplied timestamp — hot paths that
// already hold the request's end time skip the extra clock read.
func (s *SLO) RecordAt(now time.Time, d time.Duration, isError bool) {
	if s == nil {
		return
	}
	s.hist.Observe(d.Seconds())
	sec := now.Unix()
	s.mu.Lock()
	b := &s.buckets[sec%int64(len(s.buckets))]
	if b.sec != sec {
		*b = sloBucket{sec: sec}
	}
	b.total++
	if isError {
		b.errors++
	}
	if d > s.cfg.LatencyObjective {
		b.slow++
	}
	s.mu.Unlock()
}

// SLOWindow is one window's burn-rate report.
type SLOWindow struct {
	Window          string  `json:"window"`
	Total           int64   `json:"total"`
	Errors          int64   `json:"errors"`
	Slow            int64   `json:"slow"`
	ErrorRatio      float64 `json:"error_ratio"`
	ErrorBurnRate   float64 `json:"error_burn_rate"`
	SlowRatio       float64 `json:"slow_ratio"`
	LatencyBurnRate float64 `json:"latency_burn_rate"`
}

// SLOSnapshot is the engine's state at snapshot time — the document served
// at /v1/slo.
type SLOSnapshot struct {
	LatencyObjectiveSeconds float64     `json:"latency_objective_seconds"`
	LatencyTarget           float64     `json:"latency_target"`
	ErrorTarget             float64     `json:"error_target"`
	P50Seconds              float64     `json:"p50_seconds"`
	P90Seconds              float64     `json:"p90_seconds"`
	P99Seconds              float64     `json:"p99_seconds"`
	Windows                 []SLOWindow `json:"windows"`
}

// Snapshot sums every window over the ring, refreshes the exported
// burn-rate gauges, and returns the report (zero value on nil). A window w
// at time now covers the seconds (now-w, now].
func (s *SLO) Snapshot() SLOSnapshot {
	if s == nil {
		return SLOSnapshot{}
	}
	now := s.cfg.Now().Unix()
	out := SLOSnapshot{
		LatencyObjectiveSeconds: s.cfg.LatencyObjective.Seconds(),
		LatencyTarget:           s.cfg.LatencyTarget,
		ErrorTarget:             s.cfg.ErrorTarget,
		P50Seconds:              s.hist.Quantile(0.50),
		P90Seconds:              s.hist.Quantile(0.90),
		P99Seconds:              s.hist.Quantile(0.99),
	}
	s.mu.Lock()
	for i, w := range sloWindows {
		oldest := now - int64(w/time.Second) // exclusive lower bound
		win := SLOWindow{Window: windowLabel(w)}
		for _, b := range s.buckets {
			if b.sec > oldest && b.sec <= now {
				win.Total += b.total
				win.Errors += b.errors
				win.Slow += b.slow
			}
		}
		if win.Total > 0 {
			win.ErrorRatio = float64(win.Errors) / float64(win.Total)
			win.SlowRatio = float64(win.Slow) / float64(win.Total)
			win.ErrorBurnRate = win.ErrorRatio / (1 - s.cfg.ErrorTarget)
			win.LatencyBurnRate = win.SlowRatio / (1 - s.cfg.LatencyTarget)
		}
		if i < len(s.gauges) {
			s.gauges[i].errorBurn.Set(win.ErrorBurnRate)
			s.gauges[i].latencyBurn.Set(win.LatencyBurnRate)
		}
		out.Windows = append(out.Windows, win)
	}
	s.mu.Unlock()
	return out
}
