package datasets

import (
	"fmt"

	"riskroute/internal/geo"
	"riskroute/internal/population"
	"riskroute/internal/stats"
)

// The paper uses US Census survey data at census-block resolution: 215,932
// geographic partition regions in the continental US (Section 4.2). The
// synthetic generator below reproduces the density field's structure: block
// clusters around every gazetteer city with population-proportional counts
// and Gaussian spatial spread, plus a sparse low-population rural background.
// Only the *relative* per-PoP population fraction c_i enters the bit-risk
// metric, so city-anchored sampling preserves the experiments' behaviour.

// CensusConfig controls synthetic census generation.
type CensusConfig struct {
	// Blocks is the total number of census blocks to generate. The paper's
	// data has 215,932; the default 20,000 preserves the density structure
	// at a fraction of the cost. Must be at least MinCensusBlocks.
	Blocks int
	// Seed drives all sampling (default 1).
	Seed uint64
}

const (
	// ruralFraction is the share of blocks drawn from the uniform rural
	// background instead of city clusters.
	ruralFraction = 0.15
	// urbanSpreadMiles is the standard deviation of a city cluster's block
	// scatter.
	urbanSpreadMiles = 12.0
)

func (c CensusConfig) withDefaults() CensusConfig {
	if c.Blocks == 0 {
		c.Blocks = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// MinCensusBlocks is the smallest block budget GenerateCensus accepts: ten
// blocks per gazetteer city.
var MinCensusBlocks = 10 * len(Cities)

// CheckCensusBlocks rejects a block budget GenerateCensus would panic on,
// naming the floor. Zero means the default and passes.
func CheckCensusBlocks(blocks int) error {
	if blocks != 0 && blocks < MinCensusBlocks {
		return fmt.Errorf("census blocks %d below the minimum of %d (0 means the default)", blocks, MinCensusBlocks)
	}
	return nil
}

// GenerateCensus synthesizes a continental-US census. Urban blocks cluster
// around gazetteer cities (count proportional to city population, population
// per block proportional to the city's share), rural blocks scatter
// uniformly with small populations and take the state of the nearest city.
// It panics on a block budget too small to cover the gazetteer.
func GenerateCensus(cfg CensusConfig) *population.Census {
	cfg = cfg.withDefaults()
	if cfg.Blocks < MinCensusBlocks {
		panic("datasets: census block budget too small for gazetteer")
	}
	rng := stats.NewRNG(seedFor("census") ^ cfg.Seed)

	nRural := int(float64(cfg.Blocks) * ruralFraction)
	nUrban := cfg.Blocks - nRural

	totalCityPop := 0.0
	for _, c := range Cities {
		totalCityPop += c.Population
	}

	blocks := make([]population.Block, 0, cfg.Blocks)

	// Urban blocks: each city gets a share of blocks proportional to its
	// population (at least one), holding an equal share of the city's
	// population per block.
	spreadDegLat := urbanSpreadMiles / 69.0
	remaining := nUrban
	for i, c := range Cities {
		share := int(float64(nUrban) * c.Population / totalCityPop)
		if share < 1 {
			share = 1
		}
		if i == len(Cities)-1 && remaining > share {
			share = remaining // absorb rounding remainder in the last city
		}
		if share > remaining {
			share = remaining
		}
		perBlock := c.Population * 1000 / float64(share)
		for b := 0; b < share; b++ {
			p := geo.Point{
				Lat: c.Lat + rng.Norm()*spreadDegLat,
				Lon: c.Lon + rng.Norm()*spreadDegLat/0.78, // widen for longitude shrink
			}
			p = geo.ContinentalUS.Clamp(p)
			blocks = append(blocks, population.Block{
				Location:   p,
				Population: perBlock * rng.Range(0.5, 1.5),
				State:      c.State,
			})
		}
		remaining -= share
		if remaining <= 0 {
			break
		}
	}

	// Rural background: uniform over the continental US with small
	// populations, state taken from the nearest city.
	cityPts := make([]geo.Point, len(Cities))
	for i, c := range Cities {
		cityPts[i] = c.Location()
	}
	idx := geo.NewPointIndex(cityPts)
	for b := 0; b < nRural; b++ {
		p := geo.Point{
			Lat: rng.Range(geo.ContinentalUS.MinLat, geo.ContinentalUS.MaxLat),
			Lon: rng.Range(geo.ContinentalUS.MinLon, geo.ContinentalUS.MaxLon),
		}
		nearest, _ := idx.Nearest(p)
		blocks = append(blocks, population.Block{
			Location:   p,
			Population: rng.Range(20, 400),
			State:      Cities[nearest].State,
		})
	}

	return population.NewCensus(blocks)
}
