package graph

import (
	"math"
	"sort"
)

// KShortestPaths implements Yen's algorithm for the k shortest loopless
// paths between src and dst under weights Base + alpha·Slope. RiskRoute
// uses path diversity in two places the paper sketches: candidate backup
// routes (Section 3's IP Fast Reroute and MPLS fast-reroute integrations,
// and the BGP "add paths" option) and SLA-constrained routing (Section
// 6.4), where the best bit-risk path is chosen among the k geographically
// shortest.
//
// Paths are returned best-first with their total weights. Fewer than k
// paths are returned when the graph doesn't contain k distinct loopless
// paths. It panics on out-of-range endpoints and returns nil when dst is
// unreachable. k must be positive.
func (a *Affine) KShortestPaths(src, dst, k int, alpha float64) ([][]int, []float64) {
	if src < 0 || src >= a.n || dst < 0 || dst >= a.n {
		panic("graph: KShortestPaths endpoints out of range")
	}
	if k <= 0 {
		panic("graph: KShortestPaths needs k >= 1")
	}
	first, w := a.ShortestPath(src, dst, alpha)
	if first == nil {
		return nil, nil
	}
	paths := [][]int{first}
	weights := []float64{w}

	var pool []yenCandidate

	for len(paths) < k {
		prev := paths[len(paths)-1]
		// Each node of the previous path (except the last) spawns a spur.
		for spurIdx := 0; spurIdx < len(prev)-1; spurIdx++ {
			spurNode := prev[spurIdx]
			rootPath := prev[:spurIdx+1]

			// Search a masked view: without every edge by which an accepted
			// path sharing this root leaves the spur node, and without the
			// root nodes but the spur node, to keep paths loopless.
			var banned []int
			for _, p := range paths {
				if len(p) > spurIdx && equalPrefix(p, rootPath) {
					banned = append(banned, a.EdgesBetween(spurNode, p[spurIdx+1])...)
				}
			}
			spurPath, _ := a.Without(banned, rootPath[:spurIdx]).ShortestPath(spurNode, dst, alpha)
			if spurPath == nil {
				continue
			}
			total := append(append([]int(nil), rootPath[:len(rootPath)-1]...), spurPath...)
			totalWeight := a.PathWeight(total, alpha)
			if math.IsInf(totalWeight, 1) {
				continue
			}
			if !containsPath(pool, total) && !pathInList(paths, total) {
				pool = append(pool, yenCandidate{path: total, weight: totalWeight})
			}
		}
		if len(pool) == 0 {
			break
		}
		sort.Slice(pool, func(i, j int) bool {
			if pool[i].weight != pool[j].weight {
				return pool[i].weight < pool[j].weight
			}
			return lessPath(pool[i].path, pool[j].path)
		})
		best := pool[0]
		pool = pool[1:]
		paths = append(paths, best.path)
		weights = append(weights, best.weight)
	}
	return paths, weights
}

func equalPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func samePath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessPath(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// yenCandidate is a spur path awaiting promotion in Yen's algorithm.
type yenCandidate struct {
	path   []int
	weight float64
}

func containsPath(pool []yenCandidate, p []int) bool {
	for _, c := range pool {
		if samePath(c.path, p) {
			return true
		}
	}
	return false
}

func pathInList(paths [][]int, p []int) bool {
	for _, q := range paths {
		if samePath(q, p) {
			return true
		}
	}
	return false
}
