package graph

import (
	"math"
	"testing"
	"testing/quick"

	"riskroute/internal/stats"
)

// lineGraph builds 0-1-2-...-n-1 with unit weights.
func lineGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	if g.N() != 4 || g.M() != 2 {
		t.Errorf("N=%d M=%d, want 4, 2", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 3) || g.HasEdge(-1, 0) {
		t.Error("HasEdge false positives")
	}
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("Edges() = %v", edges)
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Errorf("edge %v not normalized u < v", e)
		}
	}
}

func TestAddEdgePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"out of range": func() { New(2).AddEdge(0, 2, 1) },
		"negative u":   func() { New(2).AddEdge(-1, 0, 1) },
		"self loop":    func() { New(2).AddEdge(1, 1, 1) },
		"negative w":   func() { New(2).AddEdge(0, 1, -0.5) },
		"nan w":        func() { New(2).AddEdge(0, 1, math.NaN()) },
		"negative n":   func() { New(-1) },
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

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(5)
	tree := g.Dijkstra(0)
	for i := 0; i < 5; i++ {
		if tree.Dist[i] != float64(i) {
			t.Errorf("dist[%d] = %v, want %d", i, tree.Dist[i], i)
		}
	}
	path := tree.PathTo(4)
	want := []int{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if p := tree.PathTo(0); len(p) != 1 || p[0] != 0 {
		t.Errorf("path to source = %v, want [0]", p)
	}
}

func TestDijkstraPrefersCheaperLongerPath(t *testing.T) {
	// 0-1 direct costs 10; 0-2-1 costs 3.
	g := New(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 1, 2)
	path, d := g.ShortestPath(0, 1)
	if d != 3 {
		t.Errorf("dist = %v, want 3", d)
	}
	if len(path) != 3 || path[1] != 2 {
		t.Errorf("path = %v, want [0 2 1]", path)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	tree := g.Dijkstra(0)
	if !math.IsInf(tree.Dist[2], 1) || tree.PathTo(2) != nil {
		t.Error("node 2 should be unreachable from 0")
	}
	if _, d := g.ShortestPath(0, 3); !math.IsInf(d, 1) {
		t.Error("ShortestPath to unreachable should be +Inf")
	}
}

func TestDijkstraParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 1, 2)
	if _, d := g.ShortestPath(0, 1); d != 2 {
		t.Errorf("parallel edges: dist = %v, want 2", d)
	}
	if w := g.PathWeight([]int{0, 1}); w != 2 {
		t.Errorf("PathWeight uses cheapest parallel edge: %v", w)
	}
}

func TestDijkstraZeroWeightEdges(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	tree := g.Dijkstra(0)
	if tree.Dist[2] != 0 {
		t.Errorf("zero-weight chain dist = %v", tree.Dist[2])
	}
	if p := tree.PathTo(2); len(p) != 3 {
		t.Errorf("zero-weight path = %v", p)
	}
}

// randomConnectedGraph builds a connected random graph on n nodes with extra
// random edges and uniform random weights.
func randomConnectedGraph(rng *stats.RNG, n, extraEdges int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i), 0.1+rng.Float64()*10)
	}
	for e := 0; e < extraEdges; e++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 0.1+rng.Float64()*10)
		}
	}
	return g
}

// bellmanFord is an independent reference shortest-path implementation.
func bellmanFord(g *Graph, src int) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	edges := g.Edges()
	for iter := 0; iter < g.N(); iter++ {
		changed := false
		for _, e := range edges {
			if dist[e.U]+e.Weight < dist[e.V] {
				dist[e.V] = dist[e.U] + e.Weight
				changed = true
			}
			if dist[e.V]+e.Weight < dist[e.U] {
				dist[e.U] = dist[e.V] + e.Weight
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(30)
		g := randomConnectedGraph(rng, n, rng.Intn(2*n))
		src := rng.Intn(n)
		want := bellmanFord(g, src)
		tree := g.Dijkstra(src)
		for i := range want {
			if math.Abs(tree.Dist[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("Dijkstra vs Bellman-Ford property failed: %v", err)
	}
}

func TestPathToWeightConsistency(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(25)
		g := randomConnectedGraph(rng, n, rng.Intn(n))
		tree := g.Dijkstra(0)
		for v := 0; v < n; v++ {
			path := tree.PathTo(v)
			if path == nil {
				return false // connected graph: everything reachable
			}
			if math.Abs(g.PathWeight(path)-tree.Dist[v]) > 1e-9 {
				return false
			}
			if path[0] != 0 || path[len(path)-1] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("path/weight consistency failed: %v", err)
	}
}

func TestPathWeightDisconnectedHop(t *testing.T) {
	g := lineGraph(3)
	if w := g.PathWeight([]int{0, 2}); !math.IsInf(w, 1) {
		t.Errorf("PathWeight over missing edge = %v, want +Inf", w)
	}
	if w := g.PathWeight([]int{1}); w != 0 {
		t.Errorf("single-node path weight = %v, want 0", w)
	}
	if w := g.PathWeight(nil); w != 0 {
		t.Errorf("empty path weight = %v, want 0", w)
	}
}

func TestConnectivity(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	if g.Connected() {
		t.Error("graph with isolated nodes reported connected")
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Errorf("components = %v, want 3 groups", comps)
	}
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	if !g.Connected() {
		t.Error("line graph reported disconnected")
	}
	if New(0).Connected() != true || New(1).Connected() != true {
		t.Error("trivial graphs should be connected")
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	rng := stats.NewRNG(13)
	g := randomConnectedGraph(rng, 20, 15)
	d := g.AllPairs()
	for i := range d {
		if d[i][i] != 0 {
			t.Errorf("d[%d][%d] = %v, want 0", i, i, d[i][i])
		}
		for j := range d[i] {
			if math.Abs(d[i][j]-d[j][i]) > 1e-9 {
				t.Errorf("asymmetric all-pairs at (%d,%d): %v vs %v", i, j, d[i][j], d[j][i])
			}
		}
	}
}

func TestWithEdgeMatchesRecompute(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 3 + rng.Intn(15)
		g := randomConnectedGraph(rng, n, rng.Intn(n))
		table := NewAllPairsTable(g)

		a := rng.Intn(n)
		b := rng.Intn(n)
		if a == b {
			return true
		}
		w := 0.1 + rng.Float64()*5

		aug := New(n)
		for _, e := range append(g.Edges(), Edge{U: a, V: b, Weight: w}) {
			aug.AddEdge(e.U, e.V, e.Weight)
		}
		want := aug.AllPairs()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(table.WithEdge(i, j, a, b, w)-want[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Errorf("WithEdge exactness failed: %v", err)
	}
}

func BenchmarkDijkstra233(b *testing.B) {
	// Sized like the paper's largest network (Level3, 233 PoPs).
	rng := stats.NewRNG(17)
	g := randomConnectedGraph(rng, 233, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(i % g.N())
	}
}

func BenchmarkAllPairs100(b *testing.B) {
	rng := stats.NewRNG(19)
	g := randomConnectedGraph(rng, 100, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllPairs()
	}
}

func TestShortestPathEarlyExitMatchesFullDijkstra(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(40)
		g := randomConnectedGraph(rng, n, rng.Intn(2*n))
		u, v := rng.Intn(n), rng.Intn(n)
		path, d := g.ShortestPath(u, v)
		tree := g.Dijkstra(u)
		if math.Abs(d-tree.Dist[v]) > 1e-9 {
			return false
		}
		if u == v {
			return len(path) == 1 && path[0] == u
		}
		// The early-exit path must be a genuine u→v path of weight d.
		if path[0] != u || path[len(path)-1] != v {
			return false
		}
		return math.Abs(g.PathWeight(path)-d) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("early-exit equivalence failed: %v", err)
	}
}

func TestShortestPathOutOfRangePanics(t *testing.T) {
	g := lineGraph(3)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range endpoints should panic")
		}
	}()
	g.ShortestPath(0, 9)
}

func BenchmarkShortestPathEarlyExit(b *testing.B) {
	rng := stats.NewRNG(29)
	g := randomConnectedGraph(rng, 233, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A nearby pair: early exit should settle quickly.
		g.ShortestPath(i%g.N(), (i+3)%g.N())
	}
}
