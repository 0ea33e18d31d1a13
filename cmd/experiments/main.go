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
	"io"
	"os"
	"strings"

	"riskroute"
	"riskroute/internal/experiments"
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
			return render(lab.Table1, experiments.RenderTable1)
		case "table2":
			return render(lab.Table2, experiments.RenderTable2)
		case "table3":
			return render(lab.Table3, experiments.RenderTable3)
		case "figure1":
			return render(lab.Figure1, experiments.RenderFigure1)
		case "figure2":
			return render(lab.Figure2, experiments.RenderFigure2)
		case "figure3":
			return render(lab.Figure3, experiments.RenderFigure3)
		case "figure4":
			return render(lab.Figure4, experiments.RenderFigure4)
		case "figure5":
			return render(lab.Figure5, experiments.RenderFigure5)
		case "figure6":
			return render(lab.Figure6, experiments.RenderFigure6)
		case "figure7":
			return render(lab.Figure7, experiments.RenderFigure7)
		case "figure8":
			return render(lab.Figure8, experiments.RenderFigure8)
		case "figure9":
			for _, name := range []string{"Level3", "AT&T", "Tinet"} {
				fig := func() (*experiments.Figure9Result, error) { return lab.Figure9(name, 10) }
				if err := render(fig, experiments.RenderFigure9); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		case "figure10":
			return render(func() (*experiments.Figure10Result, error) { return lab.Figure10(8) },
				experiments.RenderFigure10)
		case "figure11":
			return render(lab.Figure11, experiments.RenderFigure11)
		case "figure12", "figure13":
			figure, title := lab.Figure12, "Figure 12"
			if id == "figure13" {
				figure, title = lab.Figure13, "Figure 13"
			}
			for _, s := range storms {
				r, err := figure(s)
				if err != nil {
					return err
				}
				if err := experiments.RenderReplay(os.Stdout, title, r); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		case "extras":
			return render(lab.Extras, experiments.RenderExtras)
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

// render computes one experiment's result and writes it to stdout.
func render[R any](compute func() (R, error), write func(io.Writer, R) error) error {
	r, err := compute()
	if err != nil {
		return err
	}
	return write(os.Stdout, r)
}

// fatal prints err under the binary's name and exits 1. The Lab's errors
// already carry the name as their package prefix, so it is added only to
// errors without it.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "experiments: ") {
		msg = "experiments: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
