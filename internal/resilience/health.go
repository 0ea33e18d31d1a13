package resilience

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"

	"riskroute/internal/obs"
)

// Severity classifies one health event.
type Severity int

const (
	// OK records an informational checkpoint: a stage completed at full
	// fidelity.
	OK Severity = iota
	// Degraded records lost fidelity the pipeline routed around: a dropped
	// hazard layer, a carried-forward advisory, an unreachable PoP pair.
	Degraded
	// Failed records a stage that could not produce output at all.
	Failed
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	default:
		return "unknown"
	}
}

// Event is one health record.
type Event struct {
	Stage    string // e.g. "topology", "hazard", "replay", "engine"
	Severity Severity
	Detail   string
	Err      error // underlying error, may be nil
}

// Health is the PipelineHealth report: an append-only, concurrency-safe log
// of what each stage did at full fidelity, what degraded, and what failed.
// Stages record into it as they run; the root API and the `riskroute check`
// subcommand print it. A nil *Health ignores all records, so pipeline code
// reports unconditionally.
type Health struct {
	mu      sync.Mutex
	events  []Event
	metrics *obs.Registry
	logger  *slog.Logger
}

// NewHealth returns an empty report.
func NewHealth() *Health { return &Health{} }

// AttachMetrics bridges health events into a telemetry registry: every event
// recorded after the call also increments pipeline.<stage>.<severity>_total.
// This is the single place where degraded-mode reporting and metrics meet —
// stages call Record/Degrade/Fail once and both surfaces update.
func (h *Health) AttachMetrics(r *obs.Registry) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.metrics = r
	h.mu.Unlock()
}

// Metrics returns the attached registry (nil when detached or on a nil
// Health), letting stages that already carry a Health reach the telemetry
// registry without a second plumbing path.
func (h *Health) Metrics() *obs.Registry {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.metrics
}

// AttachLogger bridges health events into the structured log stream: every
// event recorded after the call also emits a leveled record (OK→Info,
// Degraded→Warn, Failed→Error) with stage/severity attributes. Like
// AttachMetrics, this keeps the funnel single: stages call
// Record/Degrade/Fail once and health, metrics, and logs all update.
func (h *Health) AttachLogger(l *slog.Logger) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.logger = l
	h.mu.Unlock()
}

// Logger returns the attached logger, or the shared no-op logger when
// detached or on a nil Health — always safe to call methods on, so stages
// that carry a Health can log without a second plumbing path.
func (h *Health) Logger() *slog.Logger {
	if h == nil {
		return obs.NopLogger()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return obs.LoggerOrNop(h.logger)
}

// Record appends an informational full-fidelity checkpoint.
func (h *Health) Record(stage, format string, args ...any) {
	h.add(stage, OK, nil, format, args)
}

// Degrade appends a lost-fidelity event with its underlying cause.
func (h *Health) Degrade(stage string, err error, format string, args ...any) {
	h.add(stage, Degraded, err, format, args)
}

// Fail appends a hard-failure event.
func (h *Health) Fail(stage string, err error, format string, args ...any) {
	h.add(stage, Failed, err, format, args)
}

// add formats and appends one event. A nil report returns before the
// format runs, so engines built without a Health format nothing.
func (h *Health) add(stage string, sev Severity, err error, format string, args []any) {
	if h == nil {
		return
	}
	e := Event{Stage: stage, Severity: sev, Detail: fmt.Sprintf(format, args...), Err: err}
	h.mu.Lock()
	h.events = append(h.events, e)
	r := h.metrics
	lg := h.logger
	h.mu.Unlock()
	// Counter names follow the obs scheme: pipeline.<stage>.<severity>_total.
	r.Counter("pipeline." + e.Stage + "." + e.Severity.String() + "_total").Inc()
	if lg != nil {
		attrs := []any{"stage", e.Stage, "severity", e.Severity.String()}
		if e.Err != nil {
			attrs = append(attrs, "err", e.Err.Error())
		}
		switch e.Severity {
		case OK:
			lg.Info(e.Detail, attrs...)
		case Degraded:
			lg.Warn(e.Detail, attrs...)
		default:
			lg.Error(e.Detail, attrs...)
		}
	}
}

// Events returns a copy of all recorded events in order.
func (h *Health) Events() []Event {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.events...)
}

// Degraded reports whether any stage recorded lost fidelity or failure.
func (h *Health) Degraded() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range h.events {
		if e.Severity != OK {
			return true
		}
	}
	return false
}

// Lost returns the degraded/failed event details recorded by one stage (""
// means every stage) — the "what would degrade" list `riskroute check`
// prints.
func (h *Health) Lost(stage string) []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for _, e := range h.events {
		if e.Severity == OK || (stage != "" && e.Stage != stage) {
			continue
		}
		out = append(out, e.Detail)
	}
	return out
}

// Err summarizes the report as a *DegradedError when anything degraded or
// failed, nil otherwise — letting callers bridge a Health report into an
// errors.Is(err, ErrDegraded) check.
func (h *Health) Err() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var lost []string
	stage := ""
	for _, e := range h.events {
		if e.Severity == OK {
			continue
		}
		lost = append(lost, e.Detail)
		if stage == "" {
			stage = e.Stage
		} else if stage != e.Stage {
			stage = "pipeline"
		}
	}
	if len(lost) == 0 {
		return nil
	}
	return &DegradedError{Stage: stage, Lost: lost}
}

// String renders the report, one event per line, for terminal output.
func (h *Health) String() string {
	if h == nil {
		return "(no health report)\n"
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.events) == 0 {
		return "pipeline health: no events recorded\n"
	}
	var b strings.Builder
	for _, e := range h.events {
		fmt.Fprintf(&b, "%-8s %-10s %s", e.Severity, e.Stage, e.Detail)
		if e.Err != nil {
			fmt.Fprintf(&b, " (%v)", e.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
