package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"riskroute"
	"riskroute/internal/runtel"
)

// tel is the process-wide run lifecycle every subcommand shares. The CLI
// runs exactly one command per process, so a single global — armed by flags
// at parse time, finished by main on the way out — keeps the seventeen
// subcommands free of plumbing. When no observability flag is given it
// stays disarmed and the whole pipeline runs with nil-handle no-ops.
var tel = runtel.Run{Prog: "riskroute"}

// telFS is the command's flag set, whose flags the run manifest records.
var telFS *flag.FlagSet

// workersFlag is the global -workers bound shared by every subcommand: it
// caps the goroutines of hazard fitting, population assignment, and the
// routing engine (0 = GOMAXPROCS, 1 = sequential). All parallel stages are
// bit-deterministic, so the flag steers speed, never results.
var workersFlag int

// seedFlag is the global -seed shared by every subcommand: it drives the
// synthetic world (hazard catalogs, census) and the scenario-ensemble
// streams. The default is a fixed constant — never wall clock — so two runs
// with the same flags are byte-identical; unlike the observability flags it
// IS part of the computation and is recorded in the run manifest.
var seedFlag uint64

// telOptions returns engine options pre-wired with the session's telemetry
// (nil handles when telemetry is off — every field is nil-safe).
func telOptions() riskroute.Options {
	return riskroute.Options{
		Workers: workersFlag,
		Metrics: tel.Metrics,
		Trace:   tel.Trace,
		Health:  tel.Health,
		Logger:  tel.Logger,
	}
}

// addTelemetryFlags registers the global observability flags on a
// subcommand's flag set. flag.Func runs at parse time, so logging,
// profiling, the ledger, and the debug listener start before the command
// body does any work.
func addTelemetryFlags(fs *flag.FlagSet) {
	telFS = fs
	fs.IntVar(&workersFlag, "workers", 0,
		"max goroutines for parallel stages (0 = all cores, 1 = sequential); results are identical at any setting")
	fs.Uint64Var(&seedFlag, "seed", 1,
		"deterministic seed for the synthetic world and scenario ensembles (fixed constant, never wall clock)")
	fs.Func("telemetry", "emit a telemetry report to stderr on exit: text, json, or off", func(v string) error {
		switch v {
		case "off":
		case "text", "json":
			tel.Arm()
		default:
			return fmt.Errorf("unknown telemetry format %q (want text, json, or off)", v)
		}
		tel.Report = v
		return nil
	})
	fs.Func("log", "structured log stream to stderr: text, json, or off", func(v string) error {
		return tel.SetLog(v, os.Stderr)
	})
	fs.Func("trace-out", "write the run's span tree as Chrome trace-event JSON to `file` on exit", func(path string) error {
		tel.Arm()
		tel.TraceOut = path
		return nil
	})
	fs.Func("runs", "write a run manifest (config, input checksums, timings) under `dir`/<runID>/", func(dir string) error {
		return tel.OpenLedger(dir, os.Args[2:])
	})
	fs.Func("cpuprofile", "write a CPU profile of the run to `file`", tel.StartCPUProfile)
	fs.Func("memprofile", "write a heap profile at exit to `file`", func(path string) error {
		tel.Arm()
		tel.HeapProfile = path
		return nil
	})
	fs.Func("debug-addr", "serve expvar, net/http/pprof, and /telemetry on `addr` (e.g. localhost:6060)", func(addr string) error {
		bound, err := tel.ServeDebug(addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "riskroute: debug listener on http://%s/debug/pprof/\n", bound)
		return nil
	})
}

// finishTelemetry checksums the run's topology input into the manifest,
// then finishes the run. An input that cannot be checksummed leaves no
// manifest: a record that cannot name its inputs reconstructs nothing.
func finishTelemetry(cmdErr error) {
	if tel.Ledger != nil {
		if err := recordTopology(); err != nil {
			fmt.Fprintln(os.Stderr, "riskroute: run ledger:", err)
			tel.Ledger = nil
		}
	}
	tel.Finish(telFS, cmdErr)
}

// recordTopology adds the topology input: the -topology file when given,
// else the embedded corpus serialized.
func recordTopology() error {
	if f := telFS.Lookup("topology"); f != nil && f.Value.String() != "" {
		path := f.Value.String()
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		defer file.Close()
		return tel.Ledger.AddInput("topology:"+path, file)
	}
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(riskroute.WriteTopology(pw, riskroute.BuiltinNetworks()))
	}()
	return tel.Ledger.AddInput("topology:embedded-corpus", pr)
}
