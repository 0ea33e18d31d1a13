// Provisioning: find the new links that best harden a network against
// outages — the paper's robustness analysis (Equation 4, Figures 9 and 10).
// The greedy sweep repeatedly adds the candidate link minimizing the
// network's total aggregated bit-risk miles and reports the decay.
package main

import (
	"fmt"
	"log"
	"strings"

	"riskroute"
)

func main() {
	net := riskroute.BuiltinNetwork("Tinet")
	census := riskroute.SyntheticCensus(20000, 1)
	model, err := riskroute.FitHazard(
		riskroute.SyntheticHazardSources(0.2, 1), riskroute.HazardFitConfig{})
	if err != nil {
		log.Fatal(err)
	}
	asg, err := riskroute.AssignPopulation(census, net)
	if err != nil {
		log.Fatal(err)
	}
	ctx := &riskroute.Context{
		Net:       net,
		Hist:      model.PoPRisks(net),
		Fractions: asg.Fractions,
		Params:    riskroute.Params{LambdaH: 1e5},
	}
	engine, err := riskroute.NewEngine(ctx, riskroute.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The candidate set E_C: absent links whose direct connection would cut
	// the endpoints' bit-miles by more than half.
	cands := engine.CandidateLinks()
	fmt.Printf("%s: %d PoPs, %d links, %d candidate links (>50%% bit-mile reduction rule)\n\n",
		net.Name, len(net.PoPs), len(net.Links), len(cands))

	adds, err := engine.GreedyAdditionalLinks(6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("greedy link additions (Equation 4):")
	for i, a := range adds {
		bar := strings.Repeat("#", int((1-a.Fraction)*300))
		fmt.Printf("  %d. %-16s -- %-16s  total bit-risk %.4f of original %s\n",
			i+1, net.PoPs[a.Link.A].Name, net.PoPs[a.Link.B].Name, a.Fraction, bar)
	}

	// Effect on routing quality: ratios before and after the additions.
	before := engine.Evaluate()
	augmented := engine
	for _, a := range adds {
		if augmented, err = augmented.WithLink(a.Link); err != nil {
			log.Fatal(err)
		}
	}
	after := augmented.Evaluate()
	fmt.Printf("\nrisk reduction ratio vs shortest path: %.3f before, %.3f after provisioning\n",
		before.RiskReduction, after.RiskReduction)
}
