package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"riskroute"
	"riskroute/internal/scenario"
)

// cmdEnsemble generates a seeded Monte-Carlo disaster ensemble and sweeps
// it through the routing engine, emitting per-network, per-family
// outage-risk distributions as JSON. The whole run is a pure function of
// -seed and the flags: output bytes are identical across runs and at any
// -workers setting.
func cmdEnsemble(args []string) error {
	fs := flag.NewFlagSet("ensemble", flag.ExitOnError)
	w := addWorldFlags(fs)
	networks := fs.String("networks", "Sprint", "comma-separated network names to evaluate")
	spec := fs.String("scenarios", "track=300,genesis=100,cut=250,disk=200,regional=150",
		"ensemble composition: family=count, families track, genesis, cut, disk, regional")
	storm := fs.String("storm", "Sandy", "base storm for the perturbed-track family (Irene, Katrina, Sandy)")
	jitter := scenario.DefaultPerturbation()
	fs.Float64Var(&jitter.PosDeg, "pos-jitter", jitter.PosDeg, "track position jitter σ in degrees")
	fs.Float64Var(&jitter.IntensityFrac, "intensity-jitter", jitter.IntensityFrac, "track intensity jitter σ (fraction of max wind)")
	fs.Float64Var(&jitter.RadiusFrac, "radius-jitter", jitter.RadiusFrac, "wind-radii jitter σ (fraction)")
	routePairs := fs.Int("route-pairs", 4, "PoP pairs routed per network and scenario")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	lambdaF := fs.Float64("lambda-f", 1e3, "forecast risk weight λ_f")
	fs.Parse(args)

	if w.spanRisk {
		return fmt.Errorf("ensemble evaluates per-PoP scenario overlays; -span-risk is not supported")
	}
	specs, err := riskroute.ParseScenarioSpec(*spec)
	if err != nil {
		return err
	}
	track := riskroute.HurricaneByName(*storm)
	if track == nil {
		return fmt.Errorf("unknown storm %q", *storm)
	}

	model, census, err := w.build()
	if err != nil {
		return err
	}
	var worlds []riskroute.EnsembleWorld
	for _, name := range strings.Split(*networks, ",") {
		net, err := w.network(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		asg, err := riskroute.AssignPopulationWorkers(census, net, workersFlag)
		if err != nil {
			return err
		}
		worlds = append(worlds, riskroute.EnsembleWorld{
			Net:       net,
			Hist:      model.PoPRisks(net),
			Fractions: asg.Fractions,
		})
	}

	scenarios, err := riskroute.GenerateScenarios(riskroute.ScenarioConfig{
		Seed:    seedFlag,
		Spec:    specs,
		Track:   track,
		Perturb: jitter,
		Workers: workersFlag,
		Metrics: tel.Metrics,
		Trace:   tel.Trace,
	})
	if err != nil {
		return err
	}

	rep, err := riskroute.SweepEnsemble(scenarios, worlds, riskroute.EnsembleConfig{
		Seed:    seedFlag,
		Params:  riskroute.Params{LambdaH: *lambdaH, LambdaF: *lambdaF},
		Pairs:   *routePairs,
		Workers: workersFlag,
		Metrics: tel.Metrics,
		Trace:   tel.Trace,
		Logger:  tel.Logger,
	})
	if err != nil {
		return err
	}

	if tel.Ledger != nil {
		tel.Ledger.SetConfig("ensemble-seed", seedFlag)
		tel.Ledger.SetConfig("ensemble-scenarios", riskroute.FormatScenarioSpec(specs))
		tel.Ledger.SetConfig("ensemble-count", rep.Scenarios)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
