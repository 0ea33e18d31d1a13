// Package resilience is the substrate for degraded-mode operation across the
// RiskRoute pipeline: a typed error taxonomy honored via errors.Is/As, a
// PipelineHealth report that stages append to as they lose fidelity, and a
// deterministic seeded fault Injector that can corrupt, truncate, or drop
// inputs and force errors at named injection points (topology parse, advisory
// parse, KDE bandwidth fit, and the advisory poller's poll, journal and swap).
//
// The package is a leaf: it imports only the standard library, so every other
// internal package can depend on it without cycles. All Injector and Health
// methods are nil-receiver safe — pipeline stages call them unconditionally
// and a nil injector never fires, a nil health never records.
//
// # Strict versus lenient
//
// Every parser and fitter in the pipeline comes in two flavors. Strict
// entrypoints fail closed: the first malformed input aborts with a
// *ValidationError carrying its source, line, and field. Lenient entrypoints
// fail open: they record each problem in a Health report, drop or repair the
// offending piece (skip a bad PoP line, carry a storm's last-known state
// forward over a corrupt advisory, re-normalize a hazard model that lost a
// layer), and keep the pipeline routing. errors.Is(err, ErrDegraded) and
// errors.Is(err, ErrValidation) classify failures without string matching.
package resilience

import (
	"errors"
	"fmt"
	"strings"
)

// ErrValidation is the class sentinel for *ValidationError:
// errors.Is(err, ErrValidation) matches any validation failure.
var ErrValidation = errors.New("resilience: validation error")

// ErrDegraded is the class sentinel for *DegradedError:
// errors.Is(err, ErrDegraded) matches any degraded-but-usable outcome.
var ErrDegraded = errors.New("resilience: degraded")

// ErrInjected is the class sentinel for *InjectedError.
var ErrInjected = errors.New("resilience: injected fault")

// ValidationError reports one malformed piece of input with enough position
// information to fix it: the source (a format name like "topology" or
// "advisory", or a file name), the 1-based line where known, and the field
// that failed.
type ValidationError struct {
	Source string // e.g. "topology", "graphml", "advisory"
	Line   int    // 1-based; 0 when the format has no line structure
	Field  string // e.g. "latitude", "movement speed", "node q3"
	Msg    string
}

// Error renders "source: line N: field: msg", omitting absent parts.
func (e *ValidationError) Error() string {
	var b strings.Builder
	b.WriteString(e.Source)
	if e.Line > 0 {
		fmt.Fprintf(&b, ": line %d", e.Line)
	}
	if e.Field != "" {
		b.WriteString(": ")
		b.WriteString(e.Field)
	}
	b.WriteString(": ")
	b.WriteString(e.Msg)
	return b.String()
}

// Is reports class membership: every *ValidationError matches ErrValidation.
func (e *ValidationError) Is(target error) bool { return target == ErrValidation }

// Validationf constructs a *ValidationError with a formatted message.
func Validationf(source string, line int, field, format string, args ...any) *ValidationError {
	return &ValidationError{Source: source, Line: line, Field: field, Msg: fmt.Sprintf(format, args...)}
}

// DegradedError reports that a stage completed with reduced fidelity: the
// stage name, what was lost (layer names, advisory numbers, source indices),
// and the underlying cause when one error dominates.
type DegradedError struct {
	Stage string   // e.g. "hazard", "replay", "engine"
	Lost  []string // human-readable identifiers of what degraded
	Err   error    // underlying cause, may be nil
}

// Error summarizes the stage and losses.
func (e *DegradedError) Error() string {
	msg := fmt.Sprintf("%s degraded (lost %s)", e.Stage, strings.Join(e.Lost, ", "))
	if len(e.Lost) == 0 {
		msg = fmt.Sprintf("%s degraded", e.Stage)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause to errors.Is/As chains.
func (e *DegradedError) Unwrap() error { return e.Err }

// Is reports class membership: every *DegradedError matches ErrDegraded.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// InjectedError marks a fault forced by the Injector, so tests and operators
// can tell injected failures from organic ones.
type InjectedError struct {
	Point Point  // where the fault fired
	Key   uint64 // the per-item key it fired on
}

// Error names the injection point and key.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("injected fault at %s (key %d)", e.Point, e.Key)
}

// Is reports class membership: every *InjectedError matches ErrInjected.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }
