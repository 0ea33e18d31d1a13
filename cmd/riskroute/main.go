// Command riskroute is the interactive front end to the RiskRoute
// framework: risk-aware routing, ratio evaluation, provisioning
// recommendations, peering suggestions, and hurricane replays over the
// embedded 23-network corpus (or a user-supplied topology file).
//
//	riskroute route -network Level3 -from Houston -to Boston -lambda-h 1e5
//	riskroute ratios -network Sprint
//	riskroute ratios -interdomain -network Digex
//	riskroute provision -network Tinet -links 5
//	riskroute peers -network Telepak
//	riskroute replay -storm Sandy -network Level3
//	riskroute scope -storm Irene
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"riskroute"
	"riskroute/internal/datasets"
	"riskroute/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	tel.Name = cmd
	var err error
	switch cmd {
	case "route":
		err = cmdRoute(args)
	case "explain":
		err = cmdExplain(args)
	case "ratios":
		err = cmdRatios(args)
	case "provision":
		err = cmdProvision(args)
	case "peers":
		err = cmdPeers(args)
	case "replay":
		err = cmdReplay(args)
	case "scope":
		err = cmdScope(args)
	case "outage":
		err = cmdOutage(args)
	case "backup":
		err = cmdBackup(args)
	case "fib":
		err = cmdFIB(args)
	case "kpaths":
		err = cmdKPaths(args)
	case "weights":
		err = cmdWeights(args)
	case "sharedrisk":
		err = cmdSharedRisk(args)
	case "ensemble":
		err = cmdEnsemble(args)
	case "season":
		err = cmdSeason(args)
	case "export":
		err = cmdExport(args)
	case "networks":
		err = cmdNetworks(args)
	case "check":
		err = cmdCheck(args)
	case "stats":
		err = cmdStats(args)
	case "bake":
		err = cmdBake(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "riskroute: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	finishTelemetry(err)
	if err != nil {
		fmt.Fprintln(os.Stderr, "riskroute:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `riskroute <command> [flags]

Commands:
  route      minimum bit-risk-mile path between two PoPs vs shortest path
  explain    per-edge, per-layer attribution of a route (JSON or GeoJSON,
             byte-identical to the daemon's /v1/route?explain=1)
  ratios     risk-reduction / distance-increase ratios (intra- or interdomain)
  provision  best additional links for a network (Equation 4, greedy)
  peers      best new peering relationships for a regional network
  replay     per-advisory risk ratios during a hurricane
  scope      PoPs inside a hurricane's cumulative wind fields
  outage     simulate a storm knocking out exposed PoPs
  backup     fast-reroute protection plan for a PoP pair
  fib        forwarding table with loop-free alternates (RFC 5714)
  kpaths     diverse paths and SLA-constrained routing
  weights    composite OSPF link-weight export
  sharedrisk co-located disaster exposure between providers
  ensemble   Monte-Carlo scenario sweep: perturbed storm tracks, line cuts,
             disk outages, and correlated regional failures, reported as
             per-network outage-risk distributions (JSON)
  season     per-season risk and routing behaviour
  export     dump embedded topologies (native text or GraphML)
  networks   list the embedded networks
  check      diagnose inputs and report degraded-mode pipeline health
  stats      instrumented pipeline pass; emits the telemetry report (JSON)
  bake       fit the world once and persist it as a binary snapshot that
             riskrouted -world-snapshot boots in milliseconds

Every command also takes the scheduling and observability flags:
  -workers n                 max goroutines for parallel stages (0 = all
                             cores, 1 = sequential); results are identical
                             at any setting
  -seed n                    deterministic seed for the synthetic world and
                             scenario ensembles (fixed constant, never wall
                             clock); recorded in the run manifest
  -telemetry text|json|off   emit a metrics + trace report to stderr on exit
  -log text|json|off         structured log stream (slog) to stderr
  -trace-out file            write the run's trace as Chrome trace-event JSON
  -runs dir                  write a run manifest under dir/<runID>/
  -cpuprofile file           write a CPU profile of the run
  -memprofile file           write a heap profile at exit
  -debug-addr addr           serve expvar, net/http/pprof, and /telemetry

Run 'riskroute <command> -h' for command flags.
`)
}

// worldFlags carries the shared synthetic-world configuration.
type worldFlags struct {
	blocks     int
	eventScale float64
	topoFile   string
	spanRisk   bool
}

func addWorldFlags(fs *flag.FlagSet) *worldFlags {
	w := &worldFlags{blocks: 20000}
	// A block budget below the census floor is rejected as it is parsed,
	// before anything is fitted.
	fs.Func("blocks", fmt.Sprintf("synthetic census blocks, `n` >= %d (default 20000)", datasets.MinCensusBlocks),
		func(s string) error {
			n, err := strconv.Atoi(s)
			if err != nil {
				return err
			}
			w.blocks = n
			return datasets.CheckCensusBlocks(n)
		})
	fs.Float64Var(&w.eventScale, "event-scale", 0.2, "disaster catalog scale (1.0 = paper size)")
	fs.StringVar(&w.topoFile, "topology", "", "optional topology file (native format) replacing the embedded corpus")
	fs.BoolVar(&w.spanRisk, "span-risk", false, "also charge risk sampled along fiber spans, not just at PoPs")
	addTelemetryFlags(fs)
	return w
}

func (w *worldFlags) build() (*riskroute.HazardModel, *riskroute.Census, error) {
	model, err := riskroute.FitHazard(riskroute.SyntheticHazardSources(w.eventScale, seedFlag),
		riskroute.HazardFitConfig{Workers: workersFlag, Metrics: tel.Metrics,
			Trace: tel.Trace, Health: tel.Health, Logger: tel.Logger})
	if err != nil {
		return nil, nil, err
	}
	return model, riskroute.SyntheticCensus(w.blocks, seedFlag), nil
}

func (w *worldFlags) network(name string) (*riskroute.Network, error) {
	if w.topoFile != "" {
		f, err := os.Open(w.topoFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		nets, err := riskroute.ParseTopology(f)
		if err != nil {
			return nil, err
		}
		for _, n := range nets {
			if n.Name == name {
				return n, nil
			}
		}
		return nil, fmt.Errorf("network %q not in %s", name, w.topoFile)
	}
	n := riskroute.BuiltinNetwork(name)
	if n == nil {
		return nil, fmt.Errorf("unknown network %q (try 'riskroute networks')", name)
	}
	return n, nil
}

// engineFor wires a network into a routing engine, optionally with a storm
// advisory's forecast risk and fiber-span risk sampling.
func engineFor(w *worldFlags, name string, params riskroute.Params,
	advisory *riskroute.Advisory) (*riskroute.Engine, *riskroute.Network, error) {

	net, err := w.network(name)
	if err != nil {
		return nil, nil, err
	}
	model, census, err := w.build()
	if err != nil {
		return nil, nil, err
	}
	asg, err := riskroute.AssignPopulationWorkers(census, net, workersFlag)
	if err != nil {
		return nil, nil, err
	}
	var fc []float64
	if advisory != nil {
		rm := riskroute.DefaultForecastModel()
		fc = rm.PoPRisks(advisory, net)
	}
	ctx := &riskroute.Context{
		Net:       net,
		Hist:      model.PoPRisks(net),
		Forecast:  fc,
		Fractions: asg.Fractions,
		Params:    params,
	}
	if w.spanRisk {
		ctx.SetLinkHist(model.LinkRisks(net, 8))
	}
	e, err := riskroute.NewEngine(ctx, telOptions())
	if err != nil {
		return nil, nil, err
	}
	return e, net, nil
}

func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Level3", "network name")
	from := fs.String("from", "Houston", "source PoP name")
	to := fs.String("to", "Boston", "destination PoP name")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	lambdaF := fs.Float64("lambda-f", 1e3, "forecast risk weight λ_f")
	storm := fs.String("storm", "", "active storm (Irene, Katrina, Sandy) for forecast risk")
	advisoryNum := fs.Int("advisory", 0, "advisory number within the storm (0 = peak advisory)")
	svgPath := fs.String("svg", "", "write the comparison as an SVG map")
	fs.Parse(args)

	adv, err := pickAdvisory(*storm, *advisoryNum)
	if err != nil {
		return err
	}
	e, net, err := engineFor(w, *network, riskroute.Params{LambdaH: *lambdaH, LambdaF: *lambdaF}, adv)
	if err != nil {
		return err
	}
	src := net.PoPIndex(*from)
	dst := net.PoPIndex(*to)
	if src == -1 || dst == -1 {
		return fmt.Errorf("PoP not found (%q=%d, %q=%d)", *from, src, *to, dst)
	}
	rr := e.RiskRoutePair(src, dst)
	sp := e.ShortestPair(src, dst)
	fmt.Printf("network %s, %s -> %s (λ_h=%.0e λ_f=%.0e", net.Name, *from, *to, *lambdaH, *lambdaF)
	if adv != nil {
		fmt.Printf(", %s advisory %d", *storm, adv.Number)
	}
	fmt.Println(")")
	fmt.Printf("  shortest : %8.0f mi  %10.0f bit-risk mi  %s\n",
		sp.Miles, sp.BitRiskMiles, pathString(net, sp.Path))
	fmt.Printf("  riskroute: %8.0f mi  %10.0f bit-risk mi  %s\n",
		rr.Miles, rr.BitRiskMiles, pathString(net, rr.Path))
	if sp.BitRiskMiles > 0 {
		fmt.Printf("  risk reduction: %.1f%%  distance increase: %.1f%%\n",
			100*(1-rr.BitRiskMiles/sp.BitRiskMiles), 100*(rr.Miles/sp.Miles-1))
	}
	if *svgPath != "" {
		if err := writeRouteSVG(*svgPath, net, sp.Path, rr.Path, adv); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", *svgPath)
	}
	return nil
}

// writeRouteSVG renders the network with the shortest path (blue) and the
// RiskRoute path (orange), plus the active advisory's wind fields if any.
func writeRouteSVG(path string, net *riskroute.Network, shortest, riskPath []int, adv *riskroute.Advisory) error {
	m := report.NewSVGMap(900)
	if adv != nil {
		m.AddGeoCircle(adv.Center, adv.TropicalRadiusMi, "#3498db", 0.15)
		if adv.HurricaneRadiusMi > 0 {
			m.AddGeoCircle(adv.Center, adv.HurricaneRadiusMi, "#c0392b", 0.25)
		}
	}
	m.AddLinks(net, "#bbbbbb", 0.5)
	m.AddPoPs(net.Locations(), 1.8, "#7f8c8d")
	m.AddRoute(net, shortest, "#2980b9", 2.2)
	m.AddRoute(net, riskPath, "#e67e22", 2.2)
	m.AddLabel(net.PoPs[shortest[0]].Location, net.PoPs[shortest[0]].Name, "#000000", 11)
	m.AddLabel(net.PoPs[shortest[len(shortest)-1]].Location, net.PoPs[shortest[len(shortest)-1]].Name, "#000000", 11)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.Render(f)
}

func pathString(n *riskroute.Network, path []int) string {
	names := make([]string, len(path))
	for i, v := range path {
		names[i] = n.PoPs[v].Name
	}
	return strings.Join(names, " -> ")
}

// pickAdvisory loads a storm replay and selects an advisory: by number, or
// the maximum-wind advisory when num is 0.
func pickAdvisory(storm string, num int) (*riskroute.Advisory, error) {
	if storm == "" {
		return nil, nil
	}
	track := riskroute.HurricaneByName(storm)
	if track == nil {
		return nil, fmt.Errorf("unknown storm %q", storm)
	}
	replay, err := riskroute.LoadHurricaneReplay(track)
	if err != nil {
		return nil, err
	}
	if num > 0 {
		for _, a := range replay.Advisories {
			if a.Number == num {
				return a, nil
			}
		}
		return nil, fmt.Errorf("storm %s has no advisory %d", storm, num)
	}
	best := replay.Advisories[0]
	for _, a := range replay.Advisories {
		if a.MaxWindMPH > best.MaxWindMPH {
			best = a
		}
	}
	return best, nil
}

func cmdRatios(args []string) error {
	fs := flag.NewFlagSet("ratios", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Sprint", "network name")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	inter := fs.Bool("interdomain", false, "interdomain evaluation across the peering mesh")
	fs.Parse(args)

	params := riskroute.Params{LambdaH: *lambdaH}
	if !*inter {
		e, net, err := engineFor(w, *network, params, nil)
		if err != nil {
			return err
		}
		r := e.Evaluate()
		fmt.Printf("%s intradomain (λ_h=%.0e, %d pairs): risk reduction %.3f, distance increase %.3f\n",
			net.Name, *lambdaH, r.Pairs, r.RiskReduction, r.DistanceIncrease)
		return nil
	}

	model, census, err := w.build()
	if err != nil {
		return err
	}
	nets := riskroute.BuiltinNetworks()
	comp, err := riskroute.BuildComposite(nets, riskroute.BuiltinPeered)
	if err != nil {
		return err
	}
	an, err := riskroute.NewInterdomainAnalysis(comp, model, census, nil, params, telOptions())
	if err != nil {
		return err
	}
	var regionals []string
	for _, n := range riskroute.BuiltinRegional() {
		regionals = append(regionals, n.Name)
	}
	r, err := an.RegionalRatios(*network, regionals)
	if err != nil {
		return err
	}
	fmt.Printf("%s interdomain (λ_h=%.0e, %d pairs): risk reduction %.3f, distance increase %.3f\n",
		*network, *lambdaH, r.Pairs, r.RiskReduction, r.DistanceIncrease)
	return nil
}

func cmdProvision(args []string) error {
	fs := flag.NewFlagSet("provision", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Tinet", "network name")
	links := fs.Int("links", 5, "number of links to add greedily")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	fs.Parse(args)

	e, net, err := engineFor(w, *network, riskroute.Params{LambdaH: *lambdaH}, nil)
	if err != nil {
		return err
	}
	adds, err := e.GreedyAdditionalLinks(*links)
	if err != nil {
		return err
	}
	fmt.Printf("best additional links for %s (Equation 4, greedy):\n", net.Name)
	for i, a := range adds {
		fmt.Printf("  %2d. %-20s -- %-20s  bit-risk fraction %.4f\n",
			i+1, net.PoPs[a.Link.A].Name, net.PoPs[a.Link.B].Name, a.Fraction)
	}
	if len(adds) < *links {
		fmt.Printf("  added %d of %d links: the >%g%% bit-mile reduction rule left no candidates\n",
			len(adds), *links, adds[len(adds)-1].Rule*100)
	}
	return nil
}

func cmdPeers(args []string) error {
	fs := flag.NewFlagSet("peers", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Telepak", "regional network name")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	fs.Parse(args)

	model, census, err := w.build()
	if err != nil {
		return err
	}
	nets := riskroute.BuiltinNetworks()
	var regionals []string
	for _, n := range riskroute.BuiltinRegional() {
		regionals = append(regionals, n.Name)
	}
	choices, err := riskroute.BestNewPeering(nets, riskroute.BuiltinPeered, *network,
		regionals, model, census, riskroute.Params{LambdaH: *lambdaH}, telOptions())
	if err != nil {
		return err
	}
	fmt.Printf("candidate peerings for %s (current peers: %s):\n",
		*network, strings.Join(riskroute.BuiltinPeers(*network), ", "))
	for i, c := range choices {
		fmt.Printf("  %2d. %-14s bit-risk fraction %.4f (%d shared cities)\n",
			i+1, c.Peer, c.Fraction, c.SharedCities)
	}
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Level3", "network name")
	storm := fs.String("storm", "Sandy", "storm name (Irene, Katrina, Sandy)")
	stride := fs.Int("stride", 5, "evaluate every k-th advisory")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	lambdaF := fs.Float64("lambda-f", 1e3, "forecast risk weight λ_f")
	fs.Parse(args)
	if *stride < 1 {
		return fmt.Errorf("-stride must be at least 1, got %d", *stride)
	}

	track := riskroute.HurricaneByName(*storm)
	if track == nil {
		return fmt.Errorf("unknown storm %q", *storm)
	}
	replay, err := riskroute.LoadHurricaneReplay(track)
	if err != nil {
		return err
	}
	net, err := w.network(*network)
	if err != nil {
		return err
	}
	model, census, err := w.build()
	if err != nil {
		return err
	}
	asg, err := riskroute.AssignPopulationWorkers(census, net, workersFlag)
	if err != nil {
		return err
	}
	hist := model.PoPRisks(net)
	rm := riskroute.DefaultForecastModel()

	fmt.Printf("%s during %s (λ_h=%.0e λ_f=%.0e):\n", net.Name, *storm, *lambdaH, *lambdaF)
	for i := 0; i < len(replay.Advisories); i += *stride {
		a := replay.Advisories[i]
		ctx := &riskroute.Context{
			Net:       net,
			Hist:      hist,
			Forecast:  rm.PoPRisks(a, net),
			Fractions: asg.Fractions,
			Params:    riskroute.Params{LambdaH: *lambdaH, LambdaF: *lambdaF},
		}
		e, err := riskroute.NewEngine(ctx, telOptions())
		if err != nil {
			return err
		}
		r := e.Evaluate()
		fmt.Printf("  advisory %2d  %s  center %s  risk reduction %.3f\n",
			a.Number, a.Time.UTC().Format("Jan 2 15:04Z"), a.Center, r.RiskReduction)
	}
	return nil
}

func cmdScope(args []string) error {
	fs := flag.NewFlagSet("scope", flag.ExitOnError)
	addTelemetryFlags(fs)
	storm := fs.String("storm", "Sandy", "storm name (Irene, Katrina, Sandy)")
	fs.Parse(args)

	track := riskroute.HurricaneByName(*storm)
	if track == nil {
		return fmt.Errorf("unknown storm %q", *storm)
	}
	replay, err := riskroute.LoadHurricaneReplay(track)
	if err != nil {
		return err
	}
	scope := riskroute.ScopeOf(replay)
	fmt.Printf("%s cumulative wind-field scope (%d advisories):\n", *storm, len(replay.Advisories))
	type row struct {
		name       string
		h, t, pops int
	}
	var rows []row
	for _, n := range riskroute.BuiltinNetworks() {
		h, t := scope.PoPsInScope(n)
		rows = append(rows, row{n.Name, h, t, len(n.PoPs)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].h > rows[j].h })
	for _, r := range rows {
		if r.t == 0 {
			continue
		}
		fmt.Printf("  %-14s %3d/%3d PoPs hurricane-force, %3d tropical+\n",
			r.name, r.h, r.pops, r.t)
	}
	return nil
}

func cmdNetworks(args []string) error {
	fs := flag.NewFlagSet("networks", flag.ExitOnError)
	addTelemetryFlags(fs)
	fs.Parse(args)
	fmt.Println("embedded networks (7 Tier-1, 16 regional):")
	for _, n := range riskroute.BuiltinNetworks() {
		fmt.Printf("  %-14s %-8s %3d PoPs  %3d links  peers: %s\n",
			n.Name, n.Tier, len(n.PoPs), len(n.Links),
			strings.Join(riskroute.BuiltinPeers(n.Name), ", "))
	}
	return nil
}
