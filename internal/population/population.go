// Package population implements the paper's outage-impact substrate
// (Sections 4.2 and 5.1): census blocks carrying population counts are
// assigned to network PoPs by nearest-neighbor matching, and each PoP's
// population fraction c_i feeds the impact term α_ij = c_i + c_j of the
// bit-risk-mile metric. For geographically constrained regional networks,
// only population in states where the network has infrastructure is
// considered, as in the paper.
package population

import (
	"fmt"

	"riskroute/internal/geo"
	"riskroute/internal/parallel"
	"riskroute/internal/topology"
)

// Block is one census block: a geographic partition region with a resident
// population. The paper uses 215,932 census-block-level records for the
// continental US.
type Block struct {
	Location   geo.Point
	Population float64
	State      string // two-letter USPS code
}

// Census is a queryable collection of blocks.
type Census struct {
	Blocks []Block
	total  float64
}

// NewCensus wraps blocks, precomputing the total population. It panics on an
// empty block set or non-positive total population.
func NewCensus(blocks []Block) *Census {
	if len(blocks) == 0 {
		panic("population: empty census")
	}
	total := 0.0
	for _, b := range blocks {
		if b.Population < 0 {
			panic("population: negative block population")
		}
		total += b.Population
	}
	if total <= 0 {
		panic("population: zero total population")
	}
	return &Census{Blocks: blocks, total: total}
}

// Total returns the total population across all blocks.
func (c *Census) Total() float64 { return c.total }

// Assignment is the result of nearest-neighbor population assignment: for
// each PoP of a network, the absolute population served and the fraction of
// the relevant total (c_i in the paper).
type Assignment struct {
	Network   *topology.Network
	Served    []float64 // absolute population per PoP, index-aligned
	Fractions []float64 // c_i per PoP; sums to 1 over assigned population
}

// Assign distributes census population over the network's PoPs by
// nearest-neighbor matching: each block's population goes to the closest PoP.
// For Regional networks, only blocks in states where the network has PoPs
// participate, following the paper's confinement rule; Tier-1 networks use
// every block. Fractions are normalized by the population actually assigned,
// so they always sum to 1 (a PoP pair's impact α_ij = c_i + c_j is then
// comparable across networks). It returns an error if no population lands in
// scope. The block scan runs on GOMAXPROCS workers; see AssignWorkers for an
// explicit bound.
func Assign(c *Census, n *topology.Network) (*Assignment, error) {
	return AssignWorkers(c, n, 0)
}

// assignChunkSize is the fixed block-chunk granularity of AssignWorkers.
// Boundaries depend only on the census size — never the worker count — and
// per-chunk partial sums merge in chunk order, so the served vector is
// bit-identical at any parallelism level.
const assignChunkSize = 8192

// AssignWorkers is Assign with an explicit worker bound (zero means
// GOMAXPROCS, one forces sequential).
func AssignWorkers(c *Census, n *topology.Network, workers int) (*Assignment, error) {
	inScope := func(b Block) bool { return true }
	if n.Tier == topology.Regional {
		states := make(map[string]bool)
		for _, s := range n.States() {
			states[s] = true
		}
		if len(states) > 0 {
			inScope = func(b Block) bool { return states[b.State] }
		}
	}

	idx := geo.NewPointIndex(n.Locations())
	chunks := parallel.Chunks(len(c.Blocks), assignChunkSize)
	partials := parallel.Map(len(chunks), workers, func(ci int) []float64 {
		part := make([]float64, len(n.PoPs))
		for _, b := range c.Blocks[chunks[ci].Lo:chunks[ci].Hi] {
			if b.Population == 0 || !inScope(b) {
				continue
			}
			nearest, _ := idx.Nearest(b.Location)
			part[nearest] += b.Population
		}
		return part
	})

	served := make([]float64, len(n.PoPs))
	assigned := 0.0
	for _, part := range partials { // chunk order: deterministic merge
		for i, v := range part {
			served[i] += v
		}
	}
	for _, s := range served {
		assigned += s
	}
	if assigned <= 0 {
		return nil, fmt.Errorf("population: no census population in scope of network %q", n.Name)
	}
	fractions := make([]float64, len(served))
	for i, s := range served {
		fractions[i] = s / assigned
	}
	return &Assignment{Network: n, Served: served, Fractions: fractions}, nil
}

// DensityField rasterizes the census population onto a grid (population per
// cell), backing the paper's Figure 3 heat map.
func (c *Census) DensityField(grid geo.Grid) []float64 {
	vals := make([]float64, grid.Size())
	for _, b := range c.Blocks {
		r, col := grid.Cell(b.Location)
		vals[grid.Index(r, col)] += b.Population
	}
	return vals
}
