package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"riskroute"
)

// cmdStats runs an instrumented end-to-end pipeline pass — topology parse,
// hazard fit, engine build, all-pairs sweep — and emits the telemetry report
// (trace tree + metrics snapshot + runtime stats) to stdout, JSON by default:
//
//	riskroute stats
//	riskroute stats -network Sprint -format text
//	riskroute stats -topology nets.txt
//
// The report is machine-readable: the trace carries the parse / fit /
// engine-build / sweep stage spans with durations in nanoseconds, and the
// metrics snapshot carries every counter, gauge, and histogram the pipeline
// recorded. This is the command for answering "where does a run spend its
// time" without attaching a profiler.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Level3", "network to route over")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	format := fs.String("format", "json", "report format: json or text")
	worldSnap := fs.String("world-snapshot", "", "boot from a baked world snapshot instead of fitting (see 'riskroute bake')")
	fs.Parse(args)
	if *format != "json" && *format != "text" {
		return fmt.Errorf("unknown format %q (want json or text)", *format)
	}
	if *worldSnap != "" && w.topoFile != "" {
		return fmt.Errorf("-world-snapshot verifies against the embedded corpus; it cannot be combined with -topology")
	}

	// stats always collects, with or without -telemetry. The health funnel
	// is the shared one, so degraded events flow into metrics, logs, and the
	// run manifest through a single path.
	tel.Arm()
	reg, trace, health := tel.Metrics, tel.Trace, tel.Health

	var net *riskroute.Network
	var model *riskroute.HazardModel
	var hist, fractions []float64
	if *worldSnap != "" {
		// Snapshot path: no parse, no fit — load, verify, restore. The CLI
		// fails hard on any mismatch; fallback-to-fit is the daemon's job.
		world, lstats, err := riskroute.LoadWorldSnapshot(*worldSnap, riskroute.WorldSnapshotLoadOptions{
			Workers: workersFlag, Metrics: reg, Trace: trace,
			Logger: tel.Logger, Health: health,
		})
		if err != nil {
			return err
		}
		if err := world.VerifyConfig(w.blocks, w.eventScale, seedFlag); err != nil {
			return err
		}
		for _, n := range riskroute.BuiltinNetworks() {
			if n.Name == *network {
				net = n
			}
		}
		if net == nil {
			return fmt.Errorf("network %q not found (try 'riskroute networks')", *network)
		}
		ns, err := world.VerifyNetwork(net)
		if err != nil {
			return err
		}
		if model, err = riskroute.RestoreHazardModel(world); err != nil {
			return err
		}
		hist, fractions = ns.Hist, ns.Fractions
		trace.SetAttr("boot_path", "snapshot")
		trace.SetAttr("snapshot_digest", lstats.Digest)
		trace.SetAttr("snapshot_load_ms", float64(lstats.Duration.Microseconds())/1e3)
	} else {
		// Parse stage: the user's topology file, or the embedded corpus
		// round-tripped through the native text format so the parser is
		// measured on a realistic full-corpus input.
		parse := trace.Child("parse")
		var nets []*riskroute.Network
		var err error
		if w.topoFile != "" {
			f, oerr := os.Open(w.topoFile)
			if oerr != nil {
				return oerr
			}
			nets, err = riskroute.ParseTopologyLenient(f, nil, health)
			f.Close()
		} else {
			var buf bytes.Buffer
			if err := riskroute.WriteTopology(&buf, riskroute.BuiltinNetworks()); err != nil {
				return err
			}
			nets, err = riskroute.ParseTopologyLenient(&buf, nil, health)
		}
		if err != nil {
			return err
		}
		parse.SetAttr("networks", len(nets))
		parse.End()
		for _, n := range nets {
			if n.Name == *network {
				net = n
			}
		}
		if net == nil {
			return fmt.Errorf("network %q not found (try 'riskroute networks')", *network)
		}

		model, err = riskroute.FitHazard(riskroute.SyntheticHazardSources(w.eventScale, seedFlag),
			riskroute.HazardFitConfig{Metrics: reg, Trace: trace, Health: health,
				Logger: tel.Logger})
		if err != nil {
			return err
		}
		census := riskroute.SyntheticCensus(w.blocks, seedFlag)
		asg, err := riskroute.AssignPopulationWorkers(census, net, workersFlag)
		if err != nil {
			return err
		}
		hist, fractions = model.PoPRisks(net), asg.Fractions
		trace.SetAttr("boot_path", "fit")
	}
	ctx := &riskroute.Context{
		Net:       net,
		Hist:      hist,
		Fractions: fractions,
		Params:    riskroute.Params{LambdaH: *lambdaH},
	}
	if w.spanRisk {
		ctx.SetLinkHist(model.LinkRisks(net, 8))
	}
	e, err := riskroute.NewEngine(ctx, telOptions())
	if err != nil {
		return err
	}
	r := e.Evaluate()
	trace.SetAttr("network", net.Name)
	trace.SetAttr("pairs", r.Pairs)
	trace.SetAttr("risk_reduction", r.RiskReduction)
	trace.End()

	// Same report-building path as the -telemetry exit report.
	return tel.WriteReport(os.Stdout, *format)
}
