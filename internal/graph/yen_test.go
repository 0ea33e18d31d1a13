package graph

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"riskroute/internal/stats"
)

// zeroSlopes returns an Affine whose weights are the edges' base weights
// at every α.
func zeroSlopes(n int, edges []Edge) *Affine {
	return NewAffine(n, edges, make([]float64, len(edges)))
}

func TestKShortestPathsDiamond(t *testing.T) {
	// Two disjoint routes 0->3: via 1 (cost 3) and via 2 (cost 5).
	a := zeroSlopes(4, []Edge{{0, 1, 1}, {1, 3, 2}, {0, 2, 2}, {2, 3, 3}})
	paths, weights := a.KShortestPaths(0, 3, 5, 0)
	if len(paths) != 2 {
		t.Fatalf("got %d paths: %v", len(paths), paths)
	}
	if weights[0] != 3 || weights[1] != 5 {
		t.Errorf("weights = %v, want [3 5]", weights)
	}
	if paths[0][1] != 1 || paths[1][1] != 2 {
		t.Errorf("paths = %v", paths)
	}
}

func TestKShortestPathsOrderedAndLoopless(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 4 + rng.Intn(12)
		var edges []Edge
		for i := 1; i < n; i++ {
			edges = append(edges, Edge{i, rng.Intn(i), 0.5 + rng.Float64()*5})
		}
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, Edge{u, v, 0.5 + rng.Float64()*5})
			}
		}
		slopes := make([]float64, len(edges))
		for e := range slopes {
			slopes[e] = rng.Float64()
		}
		a := NewAffine(n, edges, slopes)
		const alpha = 2.5
		src, dst := 0, n-1
		paths, weights := a.KShortestPaths(src, dst, 6, alpha)
		if len(paths) == 0 {
			return false
		}
		// Weights non-decreasing and consistent with the paths.
		for i, p := range paths {
			if p[0] != src || p[len(p)-1] != dst {
				return false
			}
			if math.Abs(a.PathWeight(p, alpha)-weights[i]) > 1e-9 {
				return false
			}
			if i > 0 && weights[i] < weights[i-1]-1e-9 {
				return false
			}
			// Loopless: no repeated node.
			seen := make(map[int]bool)
			for _, v := range p {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
			// Distinct from all earlier paths.
			for j := 0; j < i; j++ {
				if samePath(paths[j], p) {
					return false
				}
			}
		}
		// First path must be the true shortest.
		_, best := a.ShortestPath(src, dst, alpha)
		return math.Abs(weights[0]-best) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Errorf("k-shortest properties failed: %v", err)
	}
}

// simplePaths enumerates every loopless node sequence from src to dst,
// walking g.Edges(), and weighs each with its cheapest parallel edge per
// hop (Graph.PathWeight).
func simplePaths(g *Graph, src, dst int) ([][]int, []float64) {
	adj := make([]map[int]bool, g.N())
	for v := range adj {
		adj[v] = map[int]bool{}
	}
	for _, e := range g.Edges() {
		adj[e.U][e.V], adj[e.V][e.U] = true, true
	}
	var paths [][]int
	var weights []float64
	onPath := make([]bool, g.N())
	var walk func(path []int)
	walk = func(path []int) {
		v := path[len(path)-1]
		if v == dst {
			p := append([]int(nil), path...)
			paths = append(paths, p)
			weights = append(weights, g.PathWeight(p))
			return
		}
		for u := range adj[v] {
			if !onPath[u] {
				onPath[u] = true
				walk(append(path, u))
				onPath[u] = false
			}
		}
	}
	onPath[src] = true
	walk([]int{src})
	return paths, weights
}

// TestKShortestPathsMatchBruteForce asks Yen for every path on small
// multigraphs with integer weights (many ties): it must return every
// loopless node sequence exactly once, and its weights must be the sorted
// brute-force weights bit for bit — so for each k its first k weights are
// the k smallest.
func TestKShortestPathsMatchBruteForce(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 4 + rng.Intn(4)
		var edges []Edge
		var slopes []float64
		add := func(u, v int) {
			edges = append(edges, Edge{u, v, float64(1 + rng.Intn(4))})
			slopes = append(slopes, float64(rng.Intn(3)))
		}
		for i := 1; i < n; i++ {
			add(i, rng.Intn(i))
		}
		for e := 0; e < 4; e++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				add(u, v) // parallel edges allowed
			}
		}
		a := NewAffine(n, edges, slopes)
		src, dst := 0, n-1
		for _, alpha := range []float64{0, 1, 0.5} {
			all, want := simplePaths(materialize(n, edges, slopes, alpha), src, dst)
			sort.Float64s(want)
			paths, weights := a.KShortestPaths(src, dst, len(all)+1, alpha)
			if len(paths) != len(all) {
				t.Logf("seed %d α %v: Yen found %d of %d paths", seed, alpha, len(paths), len(all))
				return false
			}
			for i := range want {
				if math.Float64bits(weights[i]) != math.Float64bits(want[i]) {
					t.Logf("seed %d α %v: weight %d = %v, brute force %v", seed, alpha, i, weights[i], want[i])
					return false
				}
			}
			for _, ps := range [][][]int{paths, all} {
				sort.Slice(ps, func(i, j int) bool { return lessPath(ps[i], ps[j]) })
			}
			if !reflect.DeepEqual(paths, all) {
				t.Logf("seed %d α %v: Yen's paths differ from the loopless node sequences", seed, alpha)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Errorf("brute-force exactness failed: %v", err)
	}
}

func TestKShortestPathsEdgeCases(t *testing.T) {
	a := zeroSlopes(3, []Edge{{0, 1, 1}})
	// Unreachable destination.
	if paths, _ := a.KShortestPaths(0, 2, 3, 0); paths != nil {
		t.Errorf("unreachable should give nil, got %v", paths)
	}
	// Single path only.
	paths, weights := a.KShortestPaths(0, 1, 4, 0)
	if len(paths) != 1 || weights[0] != 1 {
		t.Errorf("line graph: %v %v", paths, weights)
	}
	// Panics.
	for name, fn := range map[string]func(){
		"bad src": func() { a.KShortestPaths(-1, 1, 2, 0) },
		"bad dst": func() { a.KShortestPaths(0, 3, 2, 0) },
		"bad k":   func() { a.KShortestPaths(0, 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkKShortestPaths(b *testing.B) {
	rng := stats.NewRNG(71)
	g := randomConnectedGraph(rng, 60, 80)
	a := zeroSlopes(g.N(), g.Edges())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.KShortestPaths(0, 59, 5, 0)
	}
}
