// Command riskmap renders ASCII maps of the RiskRoute data layers: the
// synthetic census density, each disaster catalog's fitted risk surface, the
// aggregate historical risk, network PoP locations, and hurricane scopes.
//
//	riskmap -layer population
//	riskmap -layer hurricane
//	riskmap -layer risk
//	riskmap -layer network -network Sprint
//	riskmap -layer storm -storm Sandy
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"riskroute"
	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/hazard"
	"riskroute/internal/kde"
	"riskroute/internal/report"
)

func main() {
	layer := flag.String("layer", "risk",
		"map layer: population|hurricane|tornado|storm-events|earthquake|wind|risk|network|storm")
	network := flag.String("network", "Level3", "network for -layer network")
	storm := flag.String("storm", "Sandy", "storm for -layer storm")
	eventScale := flag.Float64("event-scale", 0.2, "disaster catalog scale")
	blocks := flag.Int("blocks", 20000, "census blocks for -layer population")
	rows := flag.Int("rows", 24, "map rows")
	cols := flag.Int("cols", 72, "map columns")
	seed := flag.Uint64("seed", 1, "world seed")
	svgPath := flag.String("svg", "", "also write the layer as an SVG file")
	svgWidth := flag.Int("svg-width", 900, "SVG width in pixels")
	flag.Parse()

	if err := run(*layer, *network, *storm, *eventScale, *blocks, *rows, *cols, *seed, *svgPath, *svgWidth); err != nil {
		fmt.Fprintln(os.Stderr, "riskmap:", err)
		os.Exit(1)
	}
}

// writeSVG renders the layer's SVG, width pixels wide, and saves it.
func writeSVG(path string, width int, build func(m *report.SVGMap)) error {
	if path == "" {
		return nil
	}
	m := report.NewSVGMap(width)
	build(m)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Render(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func run(layer, network, storm string, eventScale float64, blocks, rows, cols int, seed uint64, svgPath string, svgWidth int) error {
	if svgWidth < 1 {
		return fmt.Errorf("SVG width %d below 1 pixel", svgWidth)
	}
	if err := datasets.CheckCensusBlocks(blocks); err != nil {
		return err
	}
	switch layer {
	case "population":
		census := riskroute.SyntheticCensus(blocks, seed)
		grid := geo.NewGrid(geo.ContinentalUS, 60, 140)
		f := kde.NewField(grid)
		f.Values = census.DensityField(grid)
		fmt.Printf("population density (%d census blocks)\n%s", blocks, report.HeatMap(f, rows, cols))
		return writeSVG(svgPath, svgWidth, func(m *report.SVGMap) {
			m.AddField(f, "#2c7fb8", 0.85)
		})

	case "hurricane", "tornado", "storm-events", "earthquake", "wind":
		et, err := eventTypeFor(layer)
		if err != nil {
			return err
		}
		src := hazard.SyntheticSource(et, eventScale, seed)
		model, err := hazard.Fit([]hazard.Source{src}, hazard.FitConfig{})
		if err != nil {
			return err
		}
		fmt.Printf("%s risk surface (%d events, bandwidth %.2f mi)\n%s",
			et, len(src.Events), src.Bandwidth,
			report.HeatMap(model.Sources[0].Field, rows, cols))
		return writeSVG(svgPath, svgWidth, func(m *report.SVGMap) {
			m.AddField(model.Sources[0].Field, "#c0392b", 0.85)
		})

	case "risk":
		model, err := riskroute.FitHazard(riskroute.SyntheticHazardSources(eventScale, seed),
			riskroute.HazardFitConfig{})
		if err != nil {
			return err
		}
		grid := geo.NewGrid(geo.ContinentalUS, 60, 140)
		combined := model.CombinedField(grid)
		fmt.Printf("aggregate historical outage risk o_h\n%s", report.HeatMap(combined, rows, cols))
		return writeSVG(svgPath, svgWidth, func(m *report.SVGMap) {
			m.AddField(combined, "#c0392b", 0.85)
		})

	case "network":
		n := riskroute.BuiltinNetwork(network)
		if n == nil {
			return fmt.Errorf("unknown network %q", network)
		}
		fmt.Printf("%s: %d PoPs, %d links\n%s", n.Name, len(n.PoPs), len(n.Links),
			report.USOutline(n.Locations(), 'o', rows, cols))
		return writeSVG(svgPath, svgWidth, func(m *report.SVGMap) {
			m.AddLinks(n, "#888888", 0.7)
			m.AddPoPs(n.Locations(), 2.5, "#2c3e50")
		})

	case "storm":
		track := riskroute.HurricaneByName(storm)
		if track == nil {
			return fmt.Errorf("unknown storm %q", storm)
		}
		replay, err := riskroute.LoadHurricaneReplay(track)
		if err != nil {
			return err
		}
		scope := riskroute.ScopeOf(replay)
		grid := geo.NewGrid(geo.ContinentalUS, 60, 140)
		f := kde.NewField(grid)
		for r := 0; r < grid.Rows; r++ {
			for c := 0; c < grid.Cols; c++ {
				switch scope.Classify(grid.CellCenter(r, c)) {
				case riskroute.HurricaneForceScope:
					f.Values[grid.Index(r, c)] = 1.0
				case riskroute.TropicalForceScope:
					f.Values[grid.Index(r, c)] = 0.4
				}
			}
		}
		fmt.Printf("%s cumulative wind-field scope\n%s", storm, report.HeatMap(f, rows, cols))
		return writeSVG(svgPath, svgWidth, func(m *report.SVGMap) {
			for _, a := range replay.Advisories {
				m.AddGeoCircle(a.Center, a.TropicalRadiusMi, "#3498db", 0.05)
			}
			for _, a := range replay.Advisories {
				if a.HurricaneRadiusMi > 0 {
					m.AddGeoCircle(a.Center, a.HurricaneRadiusMi, "#c0392b", 0.10)
				}
			}
		})

	default:
		return fmt.Errorf("unknown layer %q", layer)
	}
}

func eventTypeFor(layer string) (datasets.EventType, error) {
	switch strings.ToLower(layer) {
	case "hurricane":
		return datasets.FEMAHurricane, nil
	case "tornado":
		return datasets.FEMATornado, nil
	case "storm-events":
		return datasets.FEMAStorm, nil
	case "earthquake":
		return datasets.NOAAEarthquake, nil
	case "wind":
		return datasets.NOAAWind, nil
	}
	return 0, fmt.Errorf("no event type for layer %q", layer)
}
