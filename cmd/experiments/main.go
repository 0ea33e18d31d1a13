// Command experiments regenerates the tables and figures of the RiskRoute
// paper's evaluation section. With no flags it runs everything at full
// scale; -run selects one experiment, -fast trades fidelity for speed.
//
//	experiments -run table2
//	experiments -run figure12 -storm Sandy
//	experiments -fast
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"riskroute"
	"riskroute/internal/runtel"
)

func main() {
	run := flag.String("run", "all",
		"experiment to run: table1|table2|table3|figure1..figure13|extras|all")
	storm := flag.String("storm", "", "storm for figure12/figure13 (Irene, Katrina, Sandy); empty = all three")
	fast := flag.Bool("fast", false, "reduced-scale world (quicker, coarser)")
	blocks := flag.Int("blocks", 0, "census blocks (0 = default)")
	eventScale := flag.Float64("event-scale", 0, "disaster catalog scale (0 = default 1.0)")
	stride := flag.Int("stride", 0, "advisory stride for replays (0 = default 5)")
	seed := flag.Uint64("seed", 0, "world seed (0 = default 1)")
	workers := flag.Int("workers", 0,
		"max goroutines for parallel stages (0 = all cores, 1 = sequential); results are identical at any setting")
	logMode := flag.String("log", "off", "structured log stream to stderr: text, json, or off")
	traceOut := flag.String("trace-out", "", "write the run's trace as Chrome trace-event JSON to `file`")
	runsDir := flag.String("runs", "", "write a run manifest under `dir`/<runID>/")
	flag.Parse()

	cfg := riskroute.LabConfig{
		CensusBlocks: *blocks,
		EventScale:   *eventScale,
		ReplayStride: *stride,
		Seed:         *seed,
		Workers:      *workers,
	}
	if *fast {
		if cfg.CensusBlocks == 0 {
			cfg.CensusBlocks = 6000
		}
		if cfg.EventScale == 0 {
			cfg.EventScale = 0.1
		}
		if cfg.ReplayStride == 0 {
			cfg.ReplayStride = 10
		}
		cfg.MaxEventsPerCatalog = 4000
		cfg.CellMiles = 30
		cfg.CVCandidates = 10
		cfg.CVMaxEvents = 800
	}

	// Observability: any of -log/-trace-out/-runs arms the full stack so
	// the run's logs, trace, and manifest describe the same execution.
	tel := runtel.Run{Prog: "experiments", Name: "experiments", TraceOut: *traceOut}
	if *logMode != "off" || *traceOut != "" || *runsDir != "" {
		if err := tel.SetLog(*logMode, os.Stderr); err != nil {
			fatal(err)
		}
		cfg.Metrics, cfg.Trace, cfg.Logger = tel.Metrics, tel.Trace, tel.Logger
	}
	if *runsDir != "" {
		if err := tel.OpenLedger(*runsDir, os.Args[1:]); err != nil {
			fatal(err)
		}
		// The config is recorded here and by the Lab (the effective world
		// values after -fast defaults), not from the flag set.
		tel.Ledger.SetConfig("run", *run)
		tel.Ledger.SetConfig("storm", *storm)
		tel.Ledger.SetConfig("fast", *fast)
		cfg.Ledger = tel.Ledger
	}
	fmt.Fprintln(os.Stderr, "building experiment world...")
	lab, err := riskroute.NewLab(cfg)
	if err != nil {
		tel.Finish(nil, err)
		fatal(err)
	}

	storms := []string{"Irene", "Katrina", "Sandy"}
	if *storm != "" {
		storms = []string{*storm}
	}

	runOne := func(id string) error {
		switch id {
		case "table1":
			r, err := lab.Table1()
			if err != nil {
				return err
			}
			return experimentsRenderTable1(r)
		case "table2":
			r, err := lab.Table2()
			if err != nil {
				return err
			}
			return experimentsRenderTable2(r)
		case "table3":
			r, err := lab.Table3()
			if err != nil {
				return err
			}
			return experimentsRenderTable3(r)
		case "figure1":
			r, err := lab.Figure1()
			if err != nil {
				return err
			}
			return experimentsRenderFigure1(r)
		case "figure2":
			r, err := lab.Figure2()
			if err != nil {
				return err
			}
			return experimentsRenderFigure2(r)
		case "figure3":
			r, err := lab.Figure3()
			if err != nil {
				return err
			}
			return experimentsRenderFigure3(r)
		case "figure4":
			r, err := lab.Figure4()
			if err != nil {
				return err
			}
			return experimentsRenderFigure4(r)
		case "figure5":
			r, err := lab.Figure5()
			if err != nil {
				return err
			}
			return experimentsRenderFigure5(r)
		case "figure6":
			r, err := lab.Figure6()
			if err != nil {
				return err
			}
			return experimentsRenderFigure6(r)
		case "figure7":
			r, err := lab.Figure7()
			if err != nil {
				return err
			}
			return experimentsRenderFigure7(r)
		case "figure8":
			r, err := lab.Figure8()
			if err != nil {
				return err
			}
			return experimentsRenderFigure8(r)
		case "figure9":
			for _, name := range []string{"Level3", "AT&T", "Tinet"} {
				r, err := lab.Figure9(name, 10)
				if err != nil {
					return err
				}
				if err := experimentsRenderFigure9(r); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		case "figure10":
			r, err := lab.Figure10(8)
			if err != nil {
				return err
			}
			return experimentsRenderFigure10(r)
		case "figure11":
			r, err := lab.Figure11()
			if err != nil {
				return err
			}
			return experimentsRenderFigure11(r)
		case "figure12":
			for _, s := range storms {
				r, err := lab.Figure12(s)
				if err != nil {
					return err
				}
				if err := experimentsRenderReplay("Figure 12", r); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		case "extras":
			r, err := lab.Extras()
			if err != nil {
				return err
			}
			return experimentsRenderExtras(r)
		case "figure13":
			for _, s := range storms {
				r, err := lab.Figure13(s)
				if err != nil {
					return err
				}
				if err := experimentsRenderReplay("Figure 13", r); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
	}

	ids := []string{*run}
	if *run == "all" {
		ids = []string{
			"table1", "table2", "table3",
			"figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
			"figure7", "figure8", "figure9", "figure10", "figure11",
			"figure12", "figure13", "extras",
		}
	}
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "running %s...\n", id)
		fmt.Printf("==== %s ====\n", strings.ToUpper(id))
		if err := runOne(id); err != nil {
			tel.Finish(nil, err)
			fatal(err)
		}
		fmt.Println()
	}
	tel.Finish(nil, nil)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
