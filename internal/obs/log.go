package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// Structured logging rides log/slog, the same stdlib-only stance as the rest
// of the package. Three pieces:
//
//   - NewLogHandler builds the leveled text/JSON handler behind the
//     binaries' -log flag; NewLogger wraps one in a logger.
//   - NopLogger / LoggerOrNop give pipeline code an always-usable logger, so
//     instrumented stages log unconditionally and a disabled logger costs one
//     Enabled check (the handler reports false and slog discards the record
//     before formatting anything).
//   - FlightRecorder is a bounded ring of the most recent records that wraps
//     any handler; the run ledger dumps it when a run fails, so the log tail
//     survives even when -log was off.

// discardHandler drops every record and reports itself disabled at all
// levels (slog.DiscardHandler arrives in a later Go; this is its stand-in).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

var nopLogger = slog.New(discardHandler{})

// NopLogger returns the shared disabled logger: every method is safe and
// every record is discarded before formatting.
func NopLogger() *slog.Logger { return nopLogger }

// LoggerOrNop maps nil to NopLogger, letting config structs leave their
// Logger field nil and instrumented code log unconditionally.
func LoggerOrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nopLogger
	}
	return l
}

// NewLogHandler builds the slog.Handler behind NewLogger: "text" renders
// logfmt-ish lines via slog.TextHandler, "json" one JSON object per line,
// and "off" (or "") the disabled discard handler. Any other format is an
// error. Callers that compose handlers (e.g. FlightRecorder.Wrap) use this;
// everyone else uses NewLogger.
func NewLogHandler(format string, w io.Writer) (slog.Handler, error) {
	opts := &slog.HandlerOptions{Level: slog.LevelDebug}
	switch format {
	case "text":
		return slog.NewTextHandler(w, opts), nil
	case "json":
		return slog.NewJSONHandler(w, opts), nil
	case "off", "":
		return discardHandler{}, nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text, json, or off)", format)
	}
}

// NewLogger builds a structured logger for format ("text", "json", or
// "off"); "off" returns the shared NopLogger. Records at Debug and above are
// emitted.
func NewLogger(format string, w io.Writer) (*slog.Logger, error) {
	if format == "off" || format == "" {
		return nopLogger, nil
	}
	h, err := NewLogHandler(format, w)
	if err != nil {
		return nil, err
	}
	return slog.New(h), nil
}

// FlightRecorder keeps the last N formatted log records in a ring. It is a
// slog.Handler factory: Wrap returns a handler that records every record
// (regardless of the inner handler's level) and then forwards to the inner
// handler when that handler wants it. A nil *FlightRecorder is inert.
type FlightRecorder struct {
	ring Ring[string]
}

// DefaultFlightRecords is the ring size NewFlightRecorder uses for n <= 0.
const DefaultFlightRecords = 256

// NewFlightRecorder returns a ring holding the last n records (n <= 0 uses
// DefaultFlightRecords).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightRecords
	}
	return &FlightRecorder{ring: Ring[string]{buf: make([]string, n)}}
}

// Wrap returns a handler that records into the ring and forwards to inner
// (inner may be nil for record-only). Wrapping with a nil receiver returns
// inner unchanged.
func (f *FlightRecorder) Wrap(inner slog.Handler) slog.Handler {
	if f == nil {
		if inner == nil {
			return discardHandler{}
		}
		return inner
	}
	if inner == nil {
		inner = discardHandler{}
	}
	return &flightHandler{flight: f, inner: inner}
}

// Records returns the retained records, oldest first (empty on nil).
func (f *FlightRecorder) Records() []string {
	if f == nil {
		return nil
	}
	return f.ring.Records()
}

// WriteTo dumps the retained records one per line.
func (f *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, line := range f.Records() {
		n, err := io.WriteString(w, line+"\n")
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// flightHandler is the slog.Handler the ring hands out. WithAttrs/WithGroup
// derive handlers that share the same ring, so the tail is process-global.
type flightHandler struct {
	flight *FlightRecorder
	inner  slog.Handler
	prefix string // formatted attrs accumulated via WithAttrs/WithGroup
	groups []string
}

// Enabled always reports true: the ring captures every record; the inner
// handler's own Enabled gates forwarding in Handle.
func (h *flightHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *flightHandler) Handle(ctx context.Context, r slog.Record) error {
	var b strings.Builder
	b.WriteString(r.Time.UTC().Format(time.RFC3339Nano))
	b.WriteByte(' ')
	b.WriteString(r.Level.String())
	b.WriteByte(' ')
	b.WriteString(r.Message)
	b.WriteString(h.prefix)
	r.Attrs(func(a slog.Attr) bool {
		b.WriteString(formatAttr(h.groups, a))
		return true
	})
	h.flight.ring.Add(b.String())
	if h.inner.Enabled(ctx, r.Level) {
		return h.inner.Handle(ctx, r)
	}
	return nil
}

func (h *flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	c := *h
	c.inner = h.inner.WithAttrs(attrs)
	var b strings.Builder
	b.WriteString(h.prefix)
	for _, a := range attrs {
		b.WriteString(formatAttr(h.groups, a))
	}
	c.prefix = b.String()
	return &c
}

func (h *flightHandler) WithGroup(name string) slog.Handler {
	c := *h
	c.inner = h.inner.WithGroup(name)
	c.groups = append(append([]string(nil), h.groups...), name)
	return &c
}

// formatAttr renders " group.key=value", flattening nested groups.
func formatAttr(groups []string, a slog.Attr) string {
	key := a.Key
	if len(groups) > 0 {
		key = strings.Join(groups, ".") + "." + key
	}
	if a.Value.Kind() == slog.KindGroup {
		var b strings.Builder
		for _, ga := range a.Value.Group() {
			b.WriteString(formatAttr(append(groups, a.Key), ga))
		}
		return b.String()
	}
	return fmt.Sprintf(" %s=%v", key, a.Value.Any())
}
