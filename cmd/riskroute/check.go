package main

import (
	"flag"
	"fmt"
	"os"

	"riskroute"
)

// cmdCheck diagnoses pipeline inputs and reports degraded-mode health:
//
//	riskroute check -topology nets.txt          lenient topology diagnosis
//	riskroute check -topology nets.txt -strict  fail on the first corrupt line
//	riskroute check -storm Sandy -corrupt-rate 0.3 -fault-seed 7
//	riskroute check -network Level3 -drop-layer 2
//
// The last form runs the full pipeline (hazard fit, population assignment,
// engine build) in lenient mode and prints the health report; -drop-layer
// injects a fault into one hazard catalog to exercise re-normalization.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	w := addWorldFlags(fs)
	strict := fs.Bool("strict", false, "fail on the first corrupt input instead of degrading")
	storm := fs.String("storm", "", "storm whose advisory corpus to diagnose (Irene, Katrina, Sandy)")
	corruptRate := fs.Float64("corrupt-rate", 0, "fraction of advisories to corrupt before parsing")
	faultSeed := fs.Uint64("fault-seed", 1, "fault-injection seed (same seed, same faults)")
	network := fs.String("network", "Level3", "network for the full-pipeline check")
	dropLayer := fs.Int("drop-layer", -1, "inject a fault into hazard catalog N (0-4, -1 = none)")
	fs.Parse(args)

	switch {
	case w.topoFile != "":
		return checkTopologyFile(w.topoFile, *strict)
	case *storm != "":
		return checkStorm(*storm, *corruptRate, *faultSeed)
	default:
		return checkPipeline(w, *network, *dropLayer, *faultSeed)
	}
}

func checkTopologyFile(path string, strict bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strict {
		nets, err := riskroute.ParseTopology(f)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d networks, no defects (strict)\n", path, len(nets))
		return nil
	}
	health := riskroute.NewPipelineHealth()
	nets, err := riskroute.ParseTopologyLenient(f, nil, health)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d networks survive lenient parse\n", path, len(nets))
	for _, n := range nets {
		fmt.Printf("  %-14s %-8s %3d PoPs  %3d links\n", n.Name, n.Tier, len(n.PoPs), len(n.Links))
	}
	printHealth(health)
	return nil
}

func checkStorm(storm string, corruptRate float64, seed uint64) error {
	track := riskroute.HurricaneByName(storm)
	if track == nil {
		return fmt.Errorf("unknown storm %q", storm)
	}
	texts := riskroute.AdvisoryCorpus(track)
	var inj *riskroute.Injector
	if corruptRate > 0 {
		inj = riskroute.NewInjector(seed).
			Enable(riskroute.InjectAdvisoryParse, riskroute.FaultCorrupt, corruptRate)
	}
	replay, health, err := riskroute.CheckAdvisoryCorpus(storm, texts, inj)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d of %d advisories in replay, %d carried forward\n",
		storm, len(replay.Advisories), len(texts), replay.CarriedCount())
	printHealth(health)
	return nil
}

func checkPipeline(w *worldFlags, network string, dropLayer int, seed uint64) error {
	// The shared health funnel: degraded events surface as
	// pipeline.<stage>.<severity>_total counters in the exit report, leveled
	// log records under -log, and the -runs manifest's degraded summary.
	tel.Arm()
	health := tel.Health
	var inj *riskroute.Injector
	if dropLayer >= 0 {
		inj = riskroute.NewInjector(seed).
			EnableKeys(riskroute.InjectKDEFit, riskroute.FaultForceError, uint64(dropLayer))
	}
	net, err := w.network(network)
	if err != nil {
		return err
	}
	model, err := riskroute.FitHazard(riskroute.SyntheticHazardSources(w.eventScale, seedFlag),
		riskroute.HazardFitConfig{Lenient: true, Injector: inj, Health: health,
			Metrics: tel.Metrics, Trace: tel.Trace, Logger: tel.Logger})
	if err != nil {
		return err
	}
	census := riskroute.SyntheticCensus(w.blocks, seedFlag)
	asg, err := riskroute.AssignPopulationWorkers(census, net, workersFlag)
	if err != nil {
		return err
	}
	ctx := &riskroute.Context{
		Net:       net,
		Hist:      model.PoPRisks(net),
		Fractions: asg.Fractions,
		Params:    riskroute.PaperParams(),
	}
	opts := telOptions()
	opts.Injector = inj
	opts.Health = health
	e, err := riskroute.NewEngine(ctx, opts)
	if err != nil {
		return err
	}
	r := e.Evaluate()
	fmt.Printf("%s pipeline: %d hazard layers fitted", net.Name, len(model.Sources))
	if len(model.Lost) > 0 {
		fmt.Printf(" (%d lost, aggregate re-normalized by %.2f)", len(model.Lost), model.Renorm())
	}
	fmt.Printf(", %d pairs evaluated, risk reduction %.3f\n", r.Pairs, r.RiskReduction)
	printHealth(health)
	return nil
}

func printHealth(h *riskroute.PipelineHealth) {
	status := "OK"
	if h.Degraded() {
		status = "DEGRADED"
	}
	fmt.Printf("pipeline health: %s\n%s", status, h)
}
