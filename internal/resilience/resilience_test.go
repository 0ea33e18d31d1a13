package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestInjectorDeterminism(t *testing.T) {
	decide := func(seed uint64) []bool {
		in := NewInjector(seed).Enable(PointAdvisoryParse, ForceError, 0.3)
		out := make([]bool, 200)
		for k := range out {
			out[k] = in.Fail(PointAdvisoryParse, uint64(k)) != nil
		}
		return out
	}
	a, b := decide(7), decide(7)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed disagreed at key %d", k)
		}
	}
	c := decide(8)
	same := 0
	for k := range a {
		if a[k] == c[k] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical decisions")
	}
}

func TestInjectorRate(t *testing.T) {
	in := NewInjector(1).Enable(PointKDEFit, ForceError, 0.3)
	fired := 0
	const n = 2000
	for k := 0; k < n; k++ {
		if in.Fail(PointKDEFit, uint64(k)) != nil {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("rate 0.3 fired %.3f of keys", frac)
	}
	if got := in.Fired(PointKDEFit); got != fired {
		t.Errorf("Fired() = %d, want %d", got, fired)
	}
}

func TestInjectorKeyTargeting(t *testing.T) {
	in := NewInjector(1).EnableKeys(PointKDEFit, ForceError, 2)
	for k := uint64(0); k < 5; k++ {
		err := in.Fail(PointKDEFit, k)
		if (err != nil) != (k == 2) {
			t.Errorf("key %d: err=%v", k, err)
		}
	}
}

func TestInjectorPointIsolation(t *testing.T) {
	in := NewInjector(1).Enable(PointTopologyParse, ForceError, 1)
	if err := in.Fail(PointAdvisoryParse, 0); err != nil {
		t.Errorf("fault leaked to another point: %v", err)
	}
	if err := in.Fail(PointTopologyParse, 0); err == nil {
		t.Error("rate-1 fault did not fire at its own point")
	}
}

func TestNilInjectorInert(t *testing.T) {
	var in *Injector
	if err := in.Fail(PointKDEFit, 0); err != nil {
		t.Errorf("nil injector failed: %v", err)
	}
	if out, dropped := in.Transform(PointAdvisoryParse, 0, "text"); out != "text" || dropped {
		t.Errorf("nil injector transformed input: %q %v", out, dropped)
	}
	if in.Fired(PointAdvisoryParse) != 0 {
		t.Error("nil injector reported fired faults")
	}
}

func TestTransformModes(t *testing.T) {
	text := "LATITUDE 30.5 NORTH LONGITUDE 85.1 WEST 1234567890"

	drop := NewInjector(1).Enable(PointAdvisoryParse, Drop, 1)
	if out, dropped := drop.Transform(PointAdvisoryParse, 3, text); !dropped || out != "" {
		t.Errorf("Drop: got %q dropped=%v", out, dropped)
	}

	trunc := NewInjector(1).Enable(PointAdvisoryParse, Truncate, 1)
	if out, dropped := trunc.Transform(PointAdvisoryParse, 3, text); dropped || len(out) >= len(text) || len(out) == 0 {
		t.Errorf("Truncate: got %d bytes of %d", len(out), len(text))
	}

	corr := NewInjector(1).Enable(PointAdvisoryParse, Corrupt, 1)
	out, dropped := corr.Transform(PointAdvisoryParse, 3, text)
	if dropped || len(out) != len(text) {
		t.Fatalf("Corrupt changed length: %d -> %d", len(text), len(out))
	}
	if out == text {
		t.Error("Corrupt left text unchanged")
	}
	if !strings.Contains(out, "#") {
		t.Errorf("Corrupt produced no '#' markers: %q", out)
	}
	// Determinism of the mutation itself.
	again, _ := corr.Transform(PointAdvisoryParse, 3, text)
	if again != out {
		t.Error("Corrupt is not deterministic")
	}
}

func TestForceErrorLeavesTextIntact(t *testing.T) {
	in := NewInjector(1).Enable(PointAdvisoryParse, ForceError, 1)
	if out, dropped := in.Transform(PointAdvisoryParse, 0, "abc"); out != "abc" || dropped {
		t.Errorf("ForceError altered text: %q %v", out, dropped)
	}
	if err := in.Fail(PointAdvisoryParse, 0); err == nil {
		t.Error("ForceError did not fail")
	}
}

func TestErrorTaxonomy(t *testing.T) {
	v := Validationf("topology", 12, "latitude", "bad value %q", "9x.1")
	if !errors.Is(v, ErrValidation) {
		t.Error("ValidationError does not match ErrValidation")
	}
	var ve *ValidationError
	if !errors.As(v, &ve) || ve.Line != 12 || ve.Field != "latitude" {
		t.Errorf("errors.As(ValidationError) = %+v", ve)
	}
	for _, want := range []string{"topology", "line 12", "latitude", `"9x.1"`} {
		if !strings.Contains(v.Error(), want) {
			t.Errorf("error %q missing %q", v, want)
		}
	}

	d := &DegradedError{Stage: "hazard", Lost: []string{"NOAA Wind"}, Err: v}
	if !errors.Is(d, ErrDegraded) {
		t.Error("DegradedError does not match ErrDegraded")
	}
	if !errors.Is(d, ErrValidation) {
		t.Error("DegradedError does not unwrap to its cause")
	}
	var de *DegradedError
	if !errors.As(fmt.Errorf("wrap: %w", d), &de) || de.Stage != "hazard" {
		t.Errorf("errors.As(DegradedError) = %+v", de)
	}

	i := &InjectedError{Point: PointKDEFit, Key: 3}
	if !errors.Is(i, ErrInjected) {
		t.Error("InjectedError does not match ErrInjected")
	}
	if !strings.Contains(i.Error(), string(PointKDEFit)) {
		t.Errorf("InjectedError %q does not name its point", i)
	}
}

func TestHealthReport(t *testing.T) {
	h := NewHealth()
	if h.Degraded() {
		t.Error("empty report degraded")
	}
	h.Record("topology", "parsed %d networks", 23)
	if h.Degraded() {
		t.Error("OK-only report degraded")
	}
	h.Degrade("hazard", nil, "lost layer %s", "NOAA Wind")
	h.Fail("replay", errors.New("boom"), "advisory 7 unusable")
	if !h.Degraded() {
		t.Error("report with losses not degraded")
	}
	if got := h.Lost("hazard"); len(got) != 1 || !strings.Contains(got[0], "NOAA Wind") {
		t.Errorf("Lost(hazard) = %v", got)
	}
	if got := h.Lost(""); len(got) != 2 {
		t.Errorf("Lost() = %v", got)
	}
	if err := h.Err(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Err() = %v", err)
	}
	s := h.String()
	for _, want := range []string{"ok", "degraded", "failed", "NOAA Wind", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestHealthErrNil(t *testing.T) {
	h := NewHealth()
	h.Record("engine", "built")
	if err := h.Err(); err != nil {
		t.Errorf("healthy report Err() = %v", err)
	}
}

func TestNilHealthInert(t *testing.T) {
	var h *Health
	h.Record("x", "a")
	h.Degrade("x", nil, "b")
	h.Fail("x", nil, "c")
	if h.Degraded() || h.Err() != nil || len(h.Events()) != 0 {
		t.Error("nil health not inert")
	}
	_ = h.String()
}

func TestHealthConcurrent(t *testing.T) {
	h := NewHealth()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Degrade("sweep", nil, "worker %d item %d", g, i)
			}
		}(g)
	}
	wg.Wait()
	if got := len(h.Events()); got != 800 {
		t.Errorf("concurrent records: %d events, want 800", got)
	}
}

func TestHealthAttachLogger(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	h := NewHealth()
	h.AttachLogger(lg)
	h.Record("topology", "parsed %d networks", 23)
	h.Degrade("hazard", errors.New("empty catalog"), "lost layer %s", "NOAA Wind")
	h.Fail("replay", errors.New("boom"), "advisory unusable")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d log lines, want 3:\n%s", len(lines), buf.String())
	}
	checks := []struct{ level, stage, severity, extra string }{
		{"level=INFO", "stage=topology", "severity=ok", "parsed 23 networks"},
		{"level=WARN", "stage=hazard", "severity=degraded", "err=\"empty catalog\""},
		{"level=ERROR", "stage=replay", "severity=failed", "err=boom"},
	}
	for i, c := range checks {
		for _, want := range []string{c.level, c.stage, c.severity, c.extra} {
			if !strings.Contains(lines[i], want) {
				t.Errorf("line %d = %q, missing %q", i, lines[i], want)
			}
		}
	}
	// OK events carry no err attribute.
	if strings.Contains(lines[0], "err=") {
		t.Errorf("ok event should not carry err attr: %q", lines[0])
	}
}

func TestHealthLoggerAccessor(t *testing.T) {
	var h *Health
	if h.Logger() == nil {
		t.Fatal("nil health should still hand out a usable logger")
	}
	h.Logger().Info("inert") // must not panic

	h2 := NewHealth()
	if h2.Logger() == nil {
		t.Fatal("detached health should hand out the nop logger")
	}
	var buf bytes.Buffer
	lg := slog.New(slog.NewTextHandler(&buf, nil))
	h2.AttachLogger(lg)
	if h2.Logger() != lg {
		t.Fatal("attached logger should be returned as-is")
	}
}

// TestInjectorHashPinned pins one fault-injection hash to its value before
// the injector moved onto the shared stats.SplitMix64.
func TestInjectorHashPinned(t *testing.T) {
	if got := NewInjector(7).hash(PointTopologyParse, 3); got != 0xde311a0fb824d7f0 {
		t.Fatalf("hash = %#x, want 0xde311a0fb824d7f0", got)
	}
}

// TestNilHealthFormatsNothing pins that a nil report returns before the
// detail is formatted, so engines built without a Health (every swap
// reprice and custom-λ request) pay no Sprintf. The arguments are constants
// and an error, which box without allocating, so any allocation would be
// the format's.
func TestNilHealthFormatsNothing(t *testing.T) {
	var h *Health
	err := errors.New("cause")
	if allocs := testing.AllocsPerRun(100, func() {
		h.Record("engine", "built over %d PoPs, %d links", 809, 1312)
		h.Degrade("engine", err, "network %q has %d components", "Level3", 2)
		h.Fail("engine", err, "%s failed", "sweep")
	}); allocs != 0 {
		t.Errorf("nil Health allocated %v times per three records, want 0", allocs)
	}
}
