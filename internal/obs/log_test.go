package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewLogHandlerFormats(t *testing.T) {
	var buf bytes.Buffer
	h, err := NewLogHandler("text", &buf)
	if err != nil {
		t.Fatal(err)
	}
	slog.New(h).Debug("hello", "k", 1)
	if !strings.Contains(buf.String(), "level=DEBUG") || !strings.Contains(buf.String(), "msg=hello") ||
		!strings.Contains(buf.String(), "k=1") {
		t.Fatalf("text output missing fields: %q", buf.String())
	}

	buf.Reset()
	h, err = NewLogHandler("json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	slog.New(h).Warn("degraded", "stage", "hazard")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json output not JSON: %v: %q", err, buf.String())
	}
	if rec["msg"] != "degraded" || rec["stage"] != "hazard" || rec["level"] != "WARN" {
		t.Fatalf("json record = %v", rec)
	}

	for _, format := range []string{"off", ""} {
		buf.Reset()
		h, err = NewLogHandler(format, &buf)
		if err != nil {
			t.Fatal(err)
		}
		slog.New(h).Error("dropped")
		if buf.Len() != 0 {
			t.Fatalf("%q handler wrote %q", format, buf.String())
		}
		if h.Enabled(context.Background(), slog.LevelError) {
			t.Fatalf("%q handler reports itself enabled", format)
		}
	}

	if _, err := NewLogHandler("yaml", &buf); err == nil {
		t.Fatal("want error for unknown format")
	}
}

func TestLoggerOrNop(t *testing.T) {
	if LoggerOrNop(nil) != NopLogger() {
		t.Fatal("nil should map to NopLogger")
	}
	lg := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	if LoggerOrNop(lg) != lg {
		t.Fatal("non-nil should pass through")
	}
	// The nop logger must be safe for every method.
	NopLogger().Debug("a")
	NopLogger().With("k", "v").WithGroup("g").Info("b")
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	lg := slog.New(f.Wrap(nil))
	for i := 0; i < 7; i++ {
		lg.Info(fmt.Sprintf("rec-%d", i))
	}
	recs := f.Records()
	if len(recs) != 4 {
		t.Fatalf("ring kept %d records, want 4", len(recs))
	}
	// Oldest first: records 3..6 survive.
	for i, want := range []string{"rec-3", "rec-4", "rec-5", "rec-6"} {
		if !strings.Contains(recs[i], want) {
			t.Fatalf("recs[%d] = %q, want %s", i, recs[i], want)
		}
		if !strings.Contains(recs[i], "INFO") {
			t.Fatalf("recs[%d] = %q, missing level", i, recs[i])
		}
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != 4 {
		t.Fatalf("WriteTo emitted %d lines, want 4", got)
	}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	f := NewFlightRecorder(8)
	lg := slog.New(f.Wrap(nil))
	lg.Info("only")
	recs := f.Records()
	if len(recs) != 1 || !strings.Contains(recs[0], "only") {
		t.Fatalf("partial ring = %v", recs)
	}
}

func TestFlightRecorderCapturesBelowInnerLevel(t *testing.T) {
	// The inner handler only wants Warn+; the ring must still capture Debug.
	var buf bytes.Buffer
	inner := slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn})
	f := NewFlightRecorder(0)
	lg := slog.New(f.Wrap(inner))
	lg.Debug("quiet detail")
	lg.Warn("loud problem")
	if strings.Contains(buf.String(), "quiet detail") {
		t.Fatal("inner handler should not have seen the debug record")
	}
	if !strings.Contains(buf.String(), "loud problem") {
		t.Fatal("inner handler should have seen the warn record")
	}
	recs := f.Records()
	if len(recs) != 2 {
		t.Fatalf("ring kept %d records, want both", len(recs))
	}
}

func TestFlightRecorderWithAttrsAndGroups(t *testing.T) {
	f := NewFlightRecorder(0)
	lg := slog.New(f.Wrap(nil)).With("run", "r1").WithGroup("eng").With("net", "Level3")
	lg.Info("built", "pops", 44)
	recs := f.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	for _, want := range []string{"run=r1", "eng.net=Level3", "eng.pops=44", "built"} {
		if !strings.Contains(recs[0], want) {
			t.Fatalf("record %q missing %q", recs[0], want)
		}
	}
	// Derived loggers share the parent's ring.
	slog.New(f.Wrap(nil)).Info("second")
	if got := len(f.Records()); got != 2 {
		t.Fatalf("ring has %d records, want shared total 2", got)
	}
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var f *FlightRecorder
	if recs := f.Records(); recs != nil {
		t.Fatal("nil recorder should have no records")
	}
	if _, err := f.WriteTo(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// Wrap on a nil recorder passes the inner handler through (or discards).
	slog.New(f.Wrap(nil)).Info("dropped")
	var buf bytes.Buffer
	inner := slog.NewTextHandler(&buf, nil)
	slog.New(f.Wrap(inner)).Info("forwarded")
	if !strings.Contains(buf.String(), "forwarded") {
		t.Fatal("nil Wrap should pass through to inner")
	}
}

// goldenValuer is a LogValuer the flight recorder renders unresolved.
type goldenValuer struct{ n int }

func (v goldenValuer) LogValue() slog.Value { return slog.GroupValue(slog.Int("n", v.n)) }

// logGoldenRecords hands h a fixed set of records: every scalar kind, an
// error, a slice, a LogValuer, nested groups, and With/WithGroup prefixes
// three groups deep.
func logGoldenRecords(h slog.Handler) {
	ctx := context.Background()
	at := time.Date(2024, 3, 9, 12, 34, 56, 789000000, time.FixedZone("EST", -5*3600))
	rec := func(level slog.Level, msg string, attrs ...slog.Attr) slog.Record {
		r := slog.NewRecord(at, level, msg, 0)
		r.AddAttrs(attrs...)
		at = at.Add(1500 * time.Microsecond)
		return r
	}
	_ = h.Handle(ctx, rec(slog.LevelInfo, "scalars",
		slog.String("s", "a b=c"),
		slog.Int64("i", -42),
		slog.Uint64("u", 18446744073709551615),
		slog.Float64("f", 0.1+0.2),
		slog.Float64("e", 1e21),
		slog.Bool("b", true),
		slog.Duration("d", 1234567*time.Nanosecond),
		slog.Time("t", time.Date(2012, 10, 29, 23, 0, 0, 1, time.FixedZone("EDT", -4*3600))),
	))
	_ = h.Handle(ctx, rec(slog.LevelWarn, "values",
		slog.Any("err", errors.New("disk full")),
		slog.Any("ids", []int{3, 1, 2}),
		slog.Any("v", goldenValuer{3}),
		slog.Group("g", slog.Int("a", 1),
			slog.Group("h", slog.String("b", "x y"), slog.Float64("c", 0.5))),
	))
	derived := h.WithAttrs([]slog.Attr{slog.String("run", "r1"), slog.Int("pid", 7)}).
		WithGroup("eng").WithAttrs([]slog.Attr{slog.String("net", "Level3")}).
		WithGroup("sub").WithGroup("deep")
	_ = derived.Handle(ctx, rec(slog.LevelError, "built",
		slog.Int("pops", 44),
		slog.Group("stats", slog.Int("links", 3), slog.Any("m", map[string]int{"k": 1}))))
	_ = h.Handle(ctx, rec(slog.LevelDebug, "no attrs here"))
	_ = h.Handle(ctx, rec(slog.LevelInfo+2, "custom level", slog.String("empty", "")))
}

// TestFlightRecorderGoldenLines pins the dump format byte for byte: these
// lines are what the recorder produced when it formatted every record
// inside Handle, and formatting on read must not change them.
func TestFlightRecorderGoldenLines(t *testing.T) {
	want := []string{
		"2024-03-09T17:34:56.789Z INFO scalars s=a b=c i=-42 u=18446744073709551615 f=0.3 e=1e+21 b=true d=1.234567ms t=2012-10-29 23:00:00.000000001 -0400 EDT",
		"2024-03-09T17:34:56.7905Z WARN values err=disk full ids=[3 1 2] v={3} g.a=1 g.h.b=x y g.h.c=0.5",
		"2024-03-09T17:34:56.792Z ERROR built run=r1 pid=7 eng.net=Level3 eng.sub.deep.pops=44 eng.sub.deep.stats.links=3 eng.sub.deep.stats.m=map[k:1]",
		"2024-03-09T17:34:56.7935Z DEBUG no attrs here",
		"2024-03-09T17:34:56.795Z INFO+2 custom level empty=",
	}
	f := NewFlightRecorder(0)
	logGoldenRecords(f.Wrap(nil))
	got := f.Records()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != strings.Join(want, "\n")+"\n" {
		t.Errorf("WriteTo = %q", buf.String())
	}
}

// TestFlightRecorderKeepsLoggedValues pins log-time capture: a slice the
// caller mutates after logging still reads as it was logged.
func TestFlightRecorderKeepsLoggedValues(t *testing.T) {
	f := NewFlightRecorder(0)
	lg := slog.New(f.Wrap(nil))
	ids := []int{1, 2, 3}
	lg.Info("ids", "ids", ids)
	lg.Info("grouped", slog.Group("g", slog.Any("ids", ids)))
	ids[0] = 99
	recs := f.Records()
	for i, want := range []string{" ids=[1 2 3]", " g.ids=[1 2 3]"} {
		if !strings.HasSuffix(recs[i], want) {
			t.Errorf("record %d = %q, want suffix %q", i, recs[i], want)
		}
	}
}

// acceptHandler wants every record and keeps none: logging through it
// costs exactly what slog itself spends building the record.
type acceptHandler struct{ discardHandler }

func (acceptHandler) Enabled(context.Context, slog.Level) bool { return true }

// TestFlightRecorderAccessRecordAllocs bounds what the traced middleware's
// access line costs the recorder: nothing beyond slog's own record, whose
// one allocation is the array for the attrs past the fifth.
func TestFlightRecorderAccessRecordAllocs(t *testing.T) {
	ctx := context.Background()
	id, method, path := "0123456789abcdef", "GET", "/v1/route"
	allocs := func(lg *slog.Logger) float64 {
		return testing.AllocsPerRun(1000, func() {
			lg.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("id", id),
				slog.String("method", method),
				slog.String("path", path),
				slog.Int("status", 200),
				slog.Uint64("generation", 3),
				slog.Bool("cache_hit", true),
				slog.Duration("queue_wait", 1500*time.Nanosecond),
				slog.Duration("duration", 7*time.Microsecond))
		})
	}
	flight := allocs(slog.New(NewFlightRecorder(0).Wrap(nil)))
	// The race detector's instrumentation doubles slog's array allocation,
	// so the bound is slog's measured cost rather than a literal 1.
	if base := allocs(slog.New(acceptHandler{})); flight > base {
		t.Fatalf("access record allocates %.1f objects, slog alone %.1f", flight, base)
	}
}

// TestFlightRecorderConcurrent logs from 8 goroutines, through handlers
// three groups deep, while readers format the ring; run under -race.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	lg := slog.New(f.Wrap(nil)).With("run", "r1").WithGroup("a").WithGroup("b").WithGroup("c")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lg.Info("tick", "w", w, "i", i, slog.Group("g", slog.Int("n", i)))
				lg.LogAttrs(context.Background(), slog.LevelDebug, "scalar", slog.Int("i", i))
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, line := range f.Records() {
					if !strings.Contains(line, " run=r1 a.b.c.") {
						t.Errorf("malformed record %q", line)
						return
					}
				}
				if _, err := f.WriteTo(&bytes.Buffer{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if got := len(f.Records()); got != 64 {
		t.Fatalf("ring holds %d records, want 64", got)
	}
}
