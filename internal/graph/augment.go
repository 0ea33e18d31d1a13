package graph

// AllPairsTable is a precomputed N×N shortest-path distance matrix together
// with the node count, supporting O(1) evaluation of how a single added edge
// would change any pair's distance. This is the workhorse of the paper's
// robustness analysis (Equation 4), which scores every candidate link by the
// total bit-risk miles of the augmented network.
type AllPairsTable struct {
	N    int
	Dist [][]float64
}

// NewAllPairsTable computes the table for g.
func NewAllPairsTable(g *Graph) *AllPairsTable {
	return &AllPairsTable{N: g.N(), Dist: g.AllPairs()}
}

// WithEdge returns the shortest-path distance between i and j if an edge
// (a, b) of weight w were added to the graph. The identity
//
//	d'(i,j) = min( d(i,j), d(i,a)+w+d(b,j), d(i,b)+w+d(a,j) )
//
// is exact for a single added edge under non-negative weights, because a
// shortest path never needs to traverse the new edge more than once.
func (t *AllPairsTable) WithEdge(i, j, a, b int, w float64) float64 {
	d := t.Dist[i][j]
	if via := t.Dist[i][a] + w + t.Dist[b][j]; via < d {
		d = via
	}
	if via := t.Dist[i][b] + w + t.Dist[a][j]; via < d {
		d = via
	}
	return d
}
