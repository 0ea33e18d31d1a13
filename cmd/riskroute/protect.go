package main

import (
	"flag"
	"fmt"
	"math"
	"strings"

	"riskroute"
)

// Subcommands for the paper's Section 3 integrations (fast reroute, OSPF
// weight export, diverse paths), the Section 6.4 SLA variant, and the
// future-work extensions (shared risk, seasonal routing).

func cmdBackup(args []string) error {
	fs := flag.NewFlagSet("backup", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Level3", "network name")
	from := fs.String("from", "Houston", "source PoP name")
	to := fs.String("to", "Boston", "destination PoP name")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	fs.Parse(args)

	e, net, err := engineFor(w, *network, riskroute.Params{LambdaH: *lambdaH}, nil)
	if err != nil {
		return err
	}
	src, dst := net.PoPIndex(*from), net.PoPIndex(*to)
	if src == -1 || dst == -1 {
		return fmt.Errorf("PoP not found")
	}
	primary, backups, err := e.FastReroutePlan(src, dst)
	if err != nil {
		return err
	}
	fmt.Printf("fast-reroute plan, %s: %s -> %s\n", net.Name, *from, *to)
	fmt.Printf("primary (%6.0f mi, %9.0f bit-risk mi): %s\n",
		primary.Miles, primary.BitRiskMiles, pathString(net, primary.Path))
	for _, b := range backups {
		label := fmt.Sprintf("%s--%s", net.PoPs[b.FailedLink.A].Name, net.PoPs[b.FailedLink.B].Name)
		if b.Path == nil {
			fmt.Printf("  if %-36s fails: pair DISCONNECTED\n", label)
			continue
		}
		fmt.Printf("  if %-36s fails: %6.0f mi, %9.0f bit-risk mi, %d hops\n",
			label, b.Miles, b.BitRiskMiles, len(b.Path)-1)
	}
	return nil
}

func cmdKPaths(args []string) error {
	fs := flag.NewFlagSet("kpaths", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Level3", "network name")
	from := fs.String("from", "Houston", "source PoP name")
	to := fs.String("to", "Boston", "destination PoP name")
	k := fs.Int("k", 4, "number of diverse paths")
	stretch := fs.Float64("sla-stretch", -1, "if >= 0, also solve the SLA-constrained variant with this stretch budget")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	fs.Parse(args)
	if *k < 1 {
		return fmt.Errorf("-k must be at least 1, got %d", *k)
	}

	e, net, err := engineFor(w, *network, riskroute.Params{LambdaH: *lambdaH}, nil)
	if err != nil {
		return err
	}
	src, dst := net.PoPIndex(*from), net.PoPIndex(*to)
	if src == -1 || dst == -1 {
		return fmt.Errorf("PoP not found")
	}
	fmt.Printf("%d most risk-diverse paths, %s: %s -> %s\n", *k, net.Name, *from, *to)
	for i, p := range e.DiversePaths(src, dst, *k) {
		fmt.Printf("  %d. %6.0f mi  %9.0f bit-risk mi  %s\n",
			i+1, p.Miles, p.BitRiskMiles, pathString(net, p.Path))
	}
	if *stretch >= 0 {
		r, err := e.SLAConstrainedPair(src, dst, *stretch, 32)
		if err != nil {
			return err
		}
		fmt.Printf("SLA-constrained (stretch ≤ %.0f%%): %6.0f mi  %9.0f bit-risk mi  %s\n",
			*stretch*100, r.Miles, r.BitRiskMiles, pathString(net, r.Path))
	}
	return nil
}

func cmdWeights(args []string) error {
	fs := flag.NewFlagSet("weights", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Sprint", "network name")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	verify := fs.Bool("verify", true, "verify OSPF routing against exact risk routing")
	fs.Parse(args)

	e, net, err := engineFor(w, *network, riskroute.Params{LambdaH: *lambdaH}, nil)
	if err != nil {
		return err
	}
	export, err := e.ExportOSPFWeights()
	if err != nil {
		return err
	}
	fmt.Printf("composite OSPF link weights for %s (α̅ = %.4f, metric 1 = %.2f bit-risk mi):\n",
		net.Name, export.Alpha, export.MilesPerUnit)
	for _, lw := range export.Weights {
		riskShare := 0.0
		if lw.Miles+lw.Risk > 0 {
			riskShare = lw.Risk / (lw.Miles + lw.Risk)
		}
		fmt.Printf("  %-18s -- %-18s metric %5d  (%5.0f mi + risk %.0f, %2.0f%% risk)\n",
			net.PoPs[lw.Link.A].Name, net.PoPs[lw.Link.B].Name,
			lw.Weight, lw.Miles, lw.Risk, 100*riskShare)
	}
	if *verify {
		frac, err := e.VerifyOSPFExport(export, 0.01, 0)
		if err != nil {
			return err
		}
		fmt.Printf("verification: %.2f%% of pairs diverge >1%% from exact α̅ routing\n", 100*frac)
	}
	return nil
}

func cmdSharedRisk(args []string) error {
	fs := flag.NewFlagSet("sharedrisk", flag.ExitOnError)
	w := addWorldFlags(fs)
	radius := fs.Float64("radius", 50, "co-location radius in miles")
	top := fs.Int("top", 15, "show the top-N overlapping pairs")
	fs.Parse(args)
	if !(*radius > 0) || math.IsInf(*radius, 1) {
		return fmt.Errorf("-radius must be a finite positive number of miles, got %v", *radius)
	}

	model, _, err := w.build()
	if err != nil {
		return err
	}
	matrix, err := riskroute.SharedRiskMatrix(riskroute.BuiltinNetworks(), model, *radius)
	if err != nil {
		return err
	}
	fmt.Printf("shared disaster exposure between providers (radius %.0f mi):\n", *radius)
	for i, r := range matrix {
		if i >= *top {
			break
		}
		fmt.Printf("  %-14s ~ %-14s overlap %.3f  (%d co-located PoP pairs)\n",
			r.A, r.B, r.Normalized, r.ColocatedPairs)
	}
	return nil
}

func cmdSeason(args []string) error {
	fs := flag.NewFlagSet("season", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Sprint", "network name")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	fs.Parse(args)

	seasonal, err := riskroute.FitSeasonalHazard(
		riskroute.SyntheticSeasonalSources(w.eventScale, seedFlag),
		riskroute.HazardFitConfig{Metrics: tel.Metrics, Trace: tel.Trace})
	if err != nil {
		return err
	}
	net, err := w.network(*network)
	if err != nil {
		return err
	}
	census := riskroute.SyntheticCensus(w.blocks, seedFlag)
	asg, err := riskroute.AssignPopulationWorkers(census, net, workersFlag)
	if err != nil {
		return err
	}
	fmt.Printf("seasonal risk-averse routing for %s (λ_h=%.0e):\n", net.Name, *lambdaH)
	for si, name := range seasonal.Names {
		ctx := &riskroute.Context{
			Net:       net,
			Hist:      seasonal.PoPRisks(net, si),
			Fractions: asg.Fractions,
			Params:    riskroute.Params{LambdaH: *lambdaH},
		}
		e, err := riskroute.NewEngine(ctx, telOptions())
		if err != nil {
			return err
		}
		r := e.Evaluate()
		mean := 0.0
		for _, v := range ctx.Hist {
			mean += v
		}
		mean /= float64(len(ctx.Hist))
		bar := strings.Repeat("#", int(math.Min(r.RiskReduction*300, 60)))
		fmt.Printf("  %-6s  mean PoP risk %.3f  risk reduction %.3f %s\n", name, mean, r.RiskReduction, bar)
	}
	return nil
}

// cmdFIB prints a source PoP's destination-based forwarding table: primary
// risk-aware next hops plus RFC 5714 loop-free alternates.
func cmdFIB(args []string) error {
	fs := flag.NewFlagSet("fib", flag.ExitOnError)
	w := addWorldFlags(fs)
	network := fs.String("network", "Sprint", "network name")
	from := fs.String("from", "Kansas City", "source PoP name")
	lambdaH := fs.Float64("lambda-h", 1e5, "historical risk weight λ_h")
	fs.Parse(args)

	e, net, err := engineFor(w, *network, riskroute.Params{LambdaH: *lambdaH}, nil)
	if err != nil {
		return err
	}
	src := net.PoPIndex(*from)
	if src == -1 {
		return fmt.Errorf("PoP %q not found", *from)
	}
	table, err := e.ForwardingTable(src)
	if err != nil {
		return err
	}
	fmt.Printf("forwarding table at %s/%s (risk-aware next hops + loop-free alternates):\n",
		net.Name, *from)
	protected := 0
	for _, entry := range table {
		backup := "-"
		if entry.Backup != -1 {
			backup = net.PoPs[entry.Backup].Name
			protected++
		}
		fmt.Printf("  %-18s via %-18s lfa %s\n",
			net.PoPs[entry.Dest].Name, net.PoPs[entry.NextHop].Name, backup)
	}
	fmt.Printf("%d/%d destinations protected by an LFA\n", protected, len(table))
	return nil
}
