// Package runtel is the run lifecycle the riskroute, riskrouted, and
// experiments binaries share. A Run arms the telemetry stack — metrics
// registry, root trace, flight recorder, the logger writing into it, and the
// health funnel attached to both — opens the run ledger, starts the CPU
// profile and the debug listener, and at Finish drains all of it into the
// exit report, the Chrome trace, and the run manifest (see DESIGN.md §7).
//
// Each binary keeps its own flags and its own policy for when to arm; the
// lifecycle, the stderr lines it prints, and the rule for which flags a
// manifest records live here once.
package runtel

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	"riskroute/internal/obs"
	"riskroute/internal/resilience"
)

// Run is one process's telemetry lifecycle. The zero Run (apart from its
// names) is disarmed: every handle is nil, which the obs and resilience
// packages treat as a no-op, so a binary that arms lazily threads the same
// fields whether or not telemetry is on.
type Run struct {
	// Prog prefixes the lines Finish writes to stderr.
	Prog string
	// Name names the root span and the manifest's command.
	Name string

	Metrics *obs.Registry
	Trace   *obs.Span
	Health  *resilience.Health
	Logger  *slog.Logger
	// Ledger is the run manifest under construction (nil until OpenLedger).
	Ledger *obs.Ledger

	// Report selects the exit report Finish writes to stderr: "text" or
	// "json"; any other value writes none.
	Report string
	// TraceOut, when set, is where Finish writes the Chrome trace.
	TraceOut string
	// HeapProfile, when set, is where Finish writes a heap profile.
	HeapProfile string

	flight  *obs.FlightRecorder
	cpuStop func() error
	debug   *obs.DebugServer
}

// Arm creates the registry, the root trace, the flight recorder, a logger
// writing only into the flight recorder, and the health funnel bridged into
// both. It is idempotent. The flight recorder captures the log tail whatever
// the log mode, so a failed run's manifest directory gets it even when
// logging is off.
func (r *Run) Arm() {
	if r.Metrics != nil {
		return
	}
	r.Metrics = obs.NewRegistry()
	r.Trace = obs.NewTrace(r.Name)
	r.flight = obs.NewFlightRecorder(0)
	r.Logger = slog.New(r.flight.Wrap(nil))
	r.Health = resilience.NewHealth()
	r.Health.AttachMetrics(r.Metrics)
	r.Health.AttachLogger(r.Logger)
}

// SetLog arms the run and streams its log records to w as "text" or
// "json"; "off" keeps the flight-recorder-only logger.
func (r *Run) SetLog(format string, w io.Writer) error {
	r.Arm()
	h, err := obs.NewLogHandler(format, w)
	if err != nil {
		return err
	}
	r.Logger = slog.New(r.flight.Wrap(h))
	r.Health.AttachLogger(r.Logger)
	return nil
}

// OpenLedger arms the run and opens its manifest under root/<runID>/,
// recording args as the command line. A failed run also dumps the flight
// recorder's tail next to the manifest.
func (r *Run) OpenLedger(root string, args []string) error {
	r.Arm()
	led, err := obs.NewLedger(root, r.Name, args)
	if err != nil {
		return err
	}
	led.AttachFlight(r.flight)
	r.Ledger = led
	return nil
}

// StartCPUProfile arms the run and profiles the CPU into path until Finish.
func (r *Run) StartCPUProfile(path string) error {
	r.Arm()
	stop, err := obs.StartCPUProfile(path)
	if err != nil {
		return err
	}
	r.cpuStop = stop
	return nil
}

// ServeDebug arms the run and serves expvar, net/http/pprof, /telemetry,
// and /metrics over the run's registry on addr until Finish. It returns the
// bound address.
func (r *Run) ServeDebug(addr string) (string, error) {
	r.Arm()
	srv, err := obs.ServeDebug(addr, r.Metrics)
	if err != nil {
		return "", err
	}
	r.debug = srv
	return srv.Addr(), nil
}

// WriteReport renders the telemetry report — runtime vitals captured now,
// the metrics snapshot, and the trace tree — as "json", or else as text.
func (r *Run) WriteReport(w io.Writer, format string) error {
	obs.CaptureRuntime(r.Metrics)
	rep := obs.BuildReport(r.Metrics, r.Trace)
	if format == "json" {
		return rep.WriteJSON(w)
	}
	return rep.WriteText(w)
}

// unrecorded names the flags a manifest's config section leaves out: they
// steer observability or scheduling, not the computation (every parallel
// stage is bit-deterministic in the worker count), so two runs that differ
// only in them stay config-byte-equal.
var unrecorded = map[string]bool{
	"telemetry": true, "log": true, "trace-out": true, "runs": true,
	"cpuprofile": true, "memprofile": true, "debug-addr": true,
	"workers": true,
}

// Finish ends the run. It stops the CPU profile, writes the heap profile,
// closes the debug listener, and ends the root span; then it writes the
// exit report, the Chrome trace, and the manifest. The manifest's config
// records every flag of fs (defaults included; fs may be nil) except the
// unrecorded ones, and its degraded events come from the health funnel.
// Failures here go to stderr so they never mask runErr, the run's own
// outcome.
func (r *Run) Finish(fs *flag.FlagSet, runErr error) {
	if r.cpuStop != nil {
		if err := r.cpuStop(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: cpu profile: %v\n", r.Prog, err)
		}
	}
	if r.HeapProfile != "" {
		if err := obs.WriteHeapProfile(r.HeapProfile); err != nil {
			fmt.Fprintf(os.Stderr, "%s: heap profile: %v\n", r.Prog, err)
		}
	}
	if r.debug != nil {
		r.debug.Close()
	}
	r.Trace.End()
	if r.Report == "text" || r.Report == "json" {
		if err := r.WriteReport(os.Stderr, r.Report); err != nil {
			fmt.Fprintf(os.Stderr, "%s: telemetry report: %v\n", r.Prog, err)
		}
	}
	if r.TraceOut != "" {
		if err := obs.ExportChromeTrace(r.TraceOut, r.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "%s: trace export: %v\n", r.Prog, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: wrote trace to %s\n", r.Prog, r.TraceOut)
		}
	}
	if r.Ledger != nil {
		if err := r.finishLedger(fs, runErr); err != nil {
			fmt.Fprintf(os.Stderr, "%s: run ledger: %v\n", r.Prog, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: wrote run manifest to %s\n",
				r.Prog, filepath.Join(r.Ledger.Dir(), "manifest.json"))
		}
	}
}

// finishLedger records the config and degraded events, then writes the
// manifest.
func (r *Run) finishLedger(fs *flag.FlagSet, runErr error) error {
	if fs != nil {
		fs.VisitAll(func(f *flag.Flag) {
			if !unrecorded[f.Name] {
				r.Ledger.SetConfig(f.Name, f.Value.String())
			}
		})
	}
	for _, e := range r.Health.Events() {
		if sev := e.Severity.String(); sev != "ok" {
			detail := e.Detail
			if e.Err != nil {
				detail += " (" + e.Err.Error() + ")"
			}
			r.Ledger.AddDegraded(obs.LedgerEvent{Stage: e.Stage, Severity: sev, Detail: detail})
		}
	}
	return r.Ledger.Finish(r.Trace, r.Metrics, runErr)
}
