package graph

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"riskroute/internal/stats"
)

// randomAffineEdges draws a graph with few distinct base weights and
// slopes, so equal-cost paths (exact ties) are common, plus parallel edges;
// with split set, no edge joins the two halves of the node range.
func randomAffineEdges(rng *stats.RNG, n int, split bool) ([]Edge, []float64) {
	var edges []Edge
	var slopes []float64
	add := func(u, v int) {
		if u == v || (split && (u < n/2) != (v < n/2)) {
			return
		}
		edges = append(edges, Edge{U: u, V: v, Weight: float64(1 + rng.Intn(3))})
		slopes = append(slopes, 0.25*float64(rng.Intn(4)))
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
	}
	for k := rng.Intn(2 * n); k > 0; k-- {
		add(rng.Intn(n), rng.Intn(n))
	}
	return edges, slopes
}

// materialize builds the Graph with the weights the kernel computes inline.
func materialize(n int, edges []Edge, slopes []float64, alpha float64) *Graph {
	g := New(n)
	for e, ed := range edges {
		g.AddEdge(ed.U, ed.V, ed.Weight+alpha*slopes[e])
	}
	return g
}

func TestAffineMatchesMaterializedGraph(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(30)
		edges, slopes := randomAffineEdges(rng, n, seed%3 == 0)
		a := NewAffine(n, edges, slopes)
		for _, alpha := range []float64{0, 0.5, 3, 1e3} {
			g := materialize(n, edges, slopes, alpha)
			if !reflect.DeepEqual(a.Graph(alpha), g) {
				t.Logf("seed %d α %v: Graph differs", seed, alpha)
				return false
			}
			if !reflect.DeepEqual(a.AllPairs(alpha), g.AllPairs()) {
				t.Logf("seed %d α %v: AllPairs differs", seed, alpha)
				return false
			}
			if u, v := rng.Intn(n), rng.Intn(n); a.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Logf("seed %d: HasEdge(%d, %d) differs", seed, u, v)
				return false
			}
			for src := 0; src < n; src++ {
				tree := g.Dijkstra(src)
				s := a.Sweep(src, alpha)
				ok := reflect.DeepEqual(s.ShortestTree, *tree) && validVia(s, edges) && validOrder(s)
				s.Release()
				if !ok {
					t.Logf("seed %d α %v: sweep from %d differs", seed, alpha, src)
					return false
				}
				dst := rng.Intn(n)
				wantPath, wantDist := g.ShortestPath(src, dst)
				r := a.Route(src, dst, alpha)
				ok = reflect.DeepEqual(r.PathTo(dst), wantPath) &&
					math.Float64bits(r.Dist[dst]) == math.Float64bits(wantDist)
				r.Release()
				if !ok {
					t.Logf("seed %d α %v: route %d→%d differs", seed, alpha, src, dst)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// validVia checks every reached node's Via edge joins it to its predecessor.
func validVia(s *Search, edges []Edge) bool {
	for v, p := range s.Prev {
		if p == -1 {
			if s.Via[v] != -1 {
				return false
			}
			continue
		}
		e := edges[s.Via[v]]
		if !(e.U == v && e.V == int(p)) && !(e.V == v && e.U == int(p)) {
			return false
		}
	}
	return true
}

// validOrder checks Order lists exactly the reached nodes, source first,
// each after its predecessor.
func validOrder(s *Search) bool {
	pos := make(map[int32]int, len(s.Order))
	for k, v := range s.Order {
		pos[v] = k
	}
	if len(s.Order) == 0 || int(s.Order[0]) != s.Source || len(pos) != len(s.Order) {
		return false
	}
	for v, d := range s.Dist {
		k, settled := pos[int32(v)]
		if settled == math.IsInf(d, 1) {
			return false
		}
		if settled && v != s.Source && pos[s.Prev[v]] >= k {
			return false
		}
	}
	return true
}

func TestAffineWithSlopesSharesTopology(t *testing.T) {
	rng := stats.NewRNG(3)
	edges, slopes := randomAffineEdges(rng, 12, false)
	a := NewAffine(12, edges, slopes)
	before := append([]float64(nil), a.slope...)
	fresh := make([]float64, len(slopes))
	for e := range fresh {
		fresh[e] = float64(e % 5)
	}
	b := a.WithSlopes(fresh)
	if !reflect.DeepEqual(b, NewAffine(12, edges, fresh)) {
		t.Error("WithSlopes differs from a fresh NewAffine")
	}
	if !reflect.DeepEqual(a.slope, before) {
		t.Error("WithSlopes modified its receiver")
	}
	if &a.arcs[0] != &b.arcs[0] {
		t.Error("WithSlopes copied the topology instead of sharing it")
	}
}

// componentLabels labels each node with its index in g.Components().
func componentLabels(g *Graph) ([]int32, []int) {
	label := make([]int32, g.N())
	var sizes []int
	for c, comp := range g.Components() {
		for _, v := range comp {
			label[v] = int32(c)
		}
		sizes = append(sizes, len(comp))
	}
	return label, sizes
}

func TestAffineComponents(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(25)
		edges, slopes := randomAffineEdges(rng, n, seed%2 == 0)
		wantLabel, wantSizes := componentLabels(materialize(n, edges, slopes, 0))
		label, sizes := NewAffine(n, edges, slopes).Components()
		if !reflect.DeepEqual(label, wantLabel) || !reflect.DeepEqual(sizes, wantSizes) {
			t.Errorf("seed %d: Components = %v %v, Graph.Components %v %v", seed, label, sizes, wantLabel, wantSizes)
		}
	}
}

// randomMask draws up to a quarter of the edges and an eighth of the nodes
// (plus one of each) to mask, duplicates allowed.
func randomMask(rng *stats.RNG, n, m int) (edges, nodes []int) {
	for k := rng.Intn(m/4 + 2); k > 0 && m > 0; k-- {
		edges = append(edges, rng.Intn(m))
	}
	for k := rng.Intn(n/8 + 2); k > 0; k-- {
		nodes = append(nodes, rng.Intn(n))
	}
	return edges, nodes
}

// survivorGraph builds, in edge order, the Graph of the edges a mask
// leaves, at weight Base + alpha·Slope; alive reports which edges those are.
func survivorGraph(n int, edges []Edge, slopes []float64, alpha float64, deadEdges, deadNodes []int) (*Graph, []bool) {
	alive := make([]bool, len(edges))
	for e := range alive {
		alive[e] = true
	}
	for _, e := range deadEdges {
		alive[e] = false
	}
	for _, v := range deadNodes {
		for e, ed := range edges {
			if ed.U == v || ed.V == v {
				alive[e] = false
			}
		}
	}
	g := New(n)
	for e, ed := range edges {
		if alive[e] {
			g.AddEdge(ed.U, ed.V, ed.Weight+alpha*slopes[e])
		}
	}
	return g, alive
}

// sameTree reports whether a search's Dist and Prev equal tree's bit for bit.
func sameTree(s *Search, tree *ShortestTree) bool {
	if s.Source != tree.Source || !reflect.DeepEqual(s.Prev, tree.Prev) || len(s.Dist) != len(tree.Dist) {
		return false
	}
	for v, d := range tree.Dist {
		if math.Float64bits(s.Dist[v]) != math.Float64bits(d) {
			return false
		}
	}
	return true
}

// TestAffineWithoutMatchesSurvivorGraph holds masked views to the graph
// built from the surviving edges, on multigraphs with parallel edges and
// integer-weight ties: sweeps and routes bit for bit, Via naming a
// surviving original edge, and the same components, HasEdge, EdgesBetween
// and PathWeight answers.
func TestAffineWithoutMatchesSurvivorGraph(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(30)
		edges, slopes := randomAffineEdges(rng, n, seed%3 == 0)
		deadEdges, deadNodes := randomMask(rng, n, len(edges))
		view := NewAffine(n, edges, slopes).Without(deadEdges, deadNodes)
		for _, alpha := range []float64{0, 0.5, 3} {
			g, alive := survivorGraph(n, edges, slopes, alpha, deadEdges, deadNodes)
			for src := 0; src < n; src++ {
				s := view.Sweep(src, alpha)
				ok := sameTree(s, g.Dijkstra(src)) && validVia(s, edges) && validOrder(s)
				for _, e := range s.Via {
					ok = ok && (e == -1 || alive[e])
				}
				s.Release()
				if !ok {
					t.Logf("seed %d α %v: masked sweep from %d differs", seed, alpha, src)
					return false
				}
				dst := rng.Intn(n)
				wantPath, wantDist := g.ShortestPath(src, dst)
				r := view.Route(src, dst, alpha)
				path := r.PathTo(dst)
				ok = reflect.DeepEqual(path, wantPath) && math.Float64bits(r.Dist[dst]) == math.Float64bits(wantDist)
				r.Release()
				if !ok {
					t.Logf("seed %d α %v: masked route %d→%d differs", seed, alpha, src, dst)
					return false
				}
				hop := []int{src, dst}
				var between []int
				for e, ed := range edges {
					if alive[e] && (ed.U == src && ed.V == dst || ed.U == dst && ed.V == src) {
						between = append(between, e)
					}
				}
				if view.HasEdge(src, dst) != g.HasEdge(src, dst) || !reflect.DeepEqual(view.EdgesBetween(src, dst), between) ||
					math.Float64bits(view.PathWeight(hop, alpha)) != math.Float64bits(g.PathWeight(hop)) {
					t.Logf("seed %d α %v: masked edge %d-%d differs", seed, alpha, src, dst)
					return false
				}
			}
			wantLabel, wantSizes := componentLabels(g)
			if label, sizes := view.Components(); !reflect.DeepEqual(label, wantLabel) || !reflect.DeepEqual(sizes, wantSizes) {
				t.Logf("seed %d: masked Components differ", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestAffineViewsConcurrent derives masked views of one shared Affine from
// several goroutines and searches them at once; every answer must equal the
// sequential one. Under -race it also shows that deriving a view never
// writes the shared adjacency.
func TestAffineViewsConcurrent(t *testing.T) {
	rng := stats.NewRNG(11)
	const n = 40
	edges, slopes := randomAffineEdges(rng, n, false)
	shared := NewAffine(n, edges, slopes)
	type mask struct{ edges, nodes []int }
	masks := make([]mask, 8)
	want := make([][][]float64, len(masks))
	for g := range masks {
		masks[g].edges, masks[g].nodes = randomMask(rng, n, len(edges))
		want[g] = shared.Without(masks[g].edges, masks[g].nodes).AllPairs(0.5)
	}
	var wg sync.WaitGroup
	for g := range masks {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got := shared.Without(masks[g].edges, masks[g].nodes).AllPairs(0.5)
				if !reflect.DeepEqual(got, want[g]) {
					t.Errorf("goroutine %d: masked all-pairs differ from the sequential answer", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRouteGuidedMatchesRoute holds the guided search to Route on random
// multigraphs with parallel edges, zero-base edges and masked views, with
// integer weights (exact ties are common there) or real-valued ones. The
// bounds are the exact remaining cost (a sweep from the target, which can
// exceed a path's left-to-right sum by rounding), a fraction of it, or a
// per-node fraction that is admissible but not consistent, so nodes
// reopen. Whenever the guided search reports no tie, its path, Via chain
// and target label must equal Route's bit for bit; RouteGuided must equal
// Route always.
func TestRouteGuidedMatchesRoute(t *testing.T) {
	searches, untied := 0, 0
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(30)
		edges, slopes := randomAffineEdges(rng, n, seed%3 == 0)
		for k := range edges {
			switch {
			case rng.Intn(6) == 0:
				edges[k].Weight = 0
			case seed%4 == 1:
				edges[k].Weight = 3 * rng.Float64()
			}
		}
		a := NewAffine(n, edges, slopes)
		if seed%2 == 0 {
			a = a.Without(randomMask(rng, n, len(edges)))
		}
		for _, alpha := range []float64{0, 0.5, 1.0 / 3, 3} {
			for src := 0; src < n; src++ {
				dst := rng.Intn(n)
				exact := a.Sweep(dst, alpha)
				rest := append([]float64(nil), exact.Dist...)
				exact.Release()
				scale, shuffle := float64(rng.Intn(3))/2, rng.Intn(3) == 0
				bound := func(v int) float64 {
					if math.IsInf(rest[v], 1) {
						return rest[v]
					}
					if shuffle {
						return rest[v] * float64((v*7+int(seed))%5) / 4
					}
					return scale * rest[v]
				}
				want := a.Route(src, dst, alpha)
				wantPath := want.PathTo(dst)
				same := func(s *Search) bool {
					if !reflect.DeepEqual(s.PathTo(dst), wantPath) || !sameBits(s.Dist[dst], want.Dist[dst]) {
						return false
					}
					for _, v := range wantPath {
						if s.Via[v] != want.Via[v] {
							return false
						}
					}
					return true
				}
				s, tied := a.search(src, dst, alpha, bound)
				ok := tied || same(s)
				s.Release()
				g, fellBack := a.RouteGuided(src, dst, alpha, bound)
				ok = ok && same(g) && fellBack == tied
				g.Release()
				want.Release()
				if !ok {
					t.Logf("seed %d α %v: guided route %d→%d differs (tied %v)", seed, alpha, src, dst, tied)
					return false
				}
				searches++
				if !tied {
					untied++
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if untied < searches/4 {
		t.Errorf("only %d of %d guided searches ran without a tie", untied, searches)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSweepEnteringMatchesBruteForce holds SweepEntering to Bellman-Ford
// over the surviving edges, on random multigraphs with parallel edges and
// masked views, with node costs that are integers (so equal-cost paths are
// common) or reals, zeros included: every label bit for bit, each reached
// node's label its predecessor's plus its own cost, Via naming a surviving
// edge that joins the two, Order a valid settle order. The edges' weights
// must play no part.
func TestSweepEnteringMatchesBruteForce(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(30)
		edges, slopes := randomAffineEdges(rng, n, seed%3 == 0)
		deadEdges, deadNodes := randomMask(rng, n, len(edges))
		if seed%4 == 0 {
			deadEdges, deadNodes = nil, nil
		}
		full := NewAffine(n, edges, slopes)
		view := full.Without(deadEdges, deadNodes)
		_, alive := survivorGraph(n, edges, slopes, 0, deadEdges, deadNodes)
		cost := make([]float64, n)
		for v := range cost {
			if seed%2 == 0 {
				cost[v] = float64(rng.Intn(3))
			} else {
				cost[v] = 1e-3 * rng.Float64() * float64(rng.Intn(2))
			}
		}
		reslope := make([]float64, len(edges))
		for e := range reslope {
			reslope[e] = 7 * rng.Float64()
		}
		for src := 0; src < n; src++ {
			want := make([]float64, n)
			for v := range want {
				want[v] = Inf
			}
			want[src] = 0
			for changed := true; changed; {
				changed = false
				for e, ed := range edges {
					for _, uv := range [][2]int{{ed.U, ed.V}, {ed.V, ed.U}} {
						if d := want[uv[0]] + cost[uv[1]]; alive[e] && d < want[uv[1]] {
							want[uv[1]], changed = d, true
						}
					}
				}
			}
			s := view.SweepEntering(src, cost)
			ok := validVia(s, edges) && validOrder(s)
			for v, d := range s.Dist {
				ok = ok && sameBits(d, want[v])
				if p := s.Prev[v]; p >= 0 {
					ok = ok && alive[s.Via[v]] && sameBits(d, s.Dist[p]+cost[v])
				}
			}
			other := view.WithSlopes(reslope).SweepEntering(src, cost)
			ok = ok && reflect.DeepEqual(other.ShortestTree, s.ShortestTree) && reflect.DeepEqual(other.Via, s.Via)
			other.Release()
			s.Release()
			if !ok {
				t.Logf("seed %d: SweepEntering from %d differs", seed, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPooledScratchAcrossSizes runs Route, RouteGuided, Sweep and
// SweepEntering in a random interleaving on one goroutine, over
// adjacencies of 233, 60 (in two unjoined halves) and 7 nodes and a masked
// view of the largest, so most searches start on scratch space that a
// search of another size or kind left. After each one, every entry it did
// not reach must read Inf, -1 and -1, up to the scratch space's capacity,
// as a full clear before each search would leave it.
// The nodes a search reached are derived without its labels: the source
// and the heads of the live arcs out of each node it expanded (its Order,
// less a route's target). Each Sweep must equal a fresh Graph.Dijkstra bit
// for bit, each route must return the materialized graph's path and label,
// and each SweepEntering label must be its predecessor's plus its own cost.
func TestPooledScratchAcrossSizes(t *testing.T) {
	rng := stats.NewRNG(31)
	alphas := []float64{0, 0.5, 3}
	type world struct {
		a     *Affine
		edges []Edge
		g     []*Graph // the surviving edges' Graph at each of alphas
		cost  []float64
	}
	var worlds []world
	for _, size := range []struct {
		n           int
		split, mask bool
	}{{233, false, false}, {60, true, false}, {7, false, false}, {233, false, true}} {
		edges, slopes := randomAffineEdges(rng, size.n, size.split)
		w := world{a: NewAffine(size.n, edges, slopes), edges: edges, cost: make([]float64, size.n)}
		var deadEdges, deadNodes []int
		if size.mask {
			deadEdges, deadNodes = randomMask(rng, size.n, len(edges))
			w.a = w.a.Without(deadEdges, deadNodes)
		}
		for _, alpha := range alphas {
			g, _ := survivorGraph(size.n, edges, slopes, alpha, deadEdges, deadNodes)
			w.g = append(w.g, g)
		}
		for v := range w.cost {
			w.cost[v] = float64(rng.Intn(3))
		}
		worlds = append(worlds, w)
	}
	reused := 0
	for round := 0; round < 800; round++ {
		w := worlds[rng.Intn(len(worlds))]
		n, k := w.a.n, rng.Intn(len(alphas))
		alpha, g := alphas[k], w.g[k]
		src, dst := rng.Intn(n), rng.Intn(n)
		var s *Search
		ok := true
		switch kind := rng.Intn(4); kind {
		case 0, 1:
			if kind == 0 {
				s = w.a.Route(src, dst, alpha)
			} else {
				rest := g.Dijkstra(dst).Dist
				s, _ = w.a.RouteGuided(src, dst, alpha, func(v int) float64 { return rest[v] / 2 })
			}
			wantPath, wantDist := g.ShortestPath(src, dst)
			ok = reflect.DeepEqual(s.PathTo(dst), wantPath) && sameBits(s.Dist[dst], wantDist)
		case 2:
			s, dst = w.a.Sweep(src, alpha), -1
			ok = sameTree(s, g.Dijkstra(src)) && validVia(s, w.edges) && validOrder(s)
		case 3:
			s, dst = w.a.SweepEntering(src, w.cost), -1
			ok = validVia(s, w.edges) && validOrder(s)
			for v, p := range s.Prev {
				ok = ok && (p < 0 || sameBits(s.Dist[v], s.Dist[p]+w.cost[v]))
			}
		}
		reached := make([]bool, n)
		reached[src] = true
		for _, u := range s.Order {
			if int(u) == dst {
				continue
			}
			for _, e := range w.a.arcs[w.a.start[u]:w.a.start[u+1]] {
				reached[e.to] = reached[e.to] || !e.masked()
			}
		}
		dist, prev, via := s.Dist[:cap(s.Dist)], s.Prev[:cap(s.Prev)], s.Via[:cap(s.Via)]
		for v := range dist {
			if v < n && reached[v] {
				ok = ok && !math.IsInf(dist[v], 1) && (v == src) == (prev[v] == -1)
			} else {
				ok = ok && math.IsInf(dist[v], 1) && prev[v] == -1 && via[v] == -1
			}
		}
		if cap(s.Dist) > n {
			reused++
		}
		s.Release()
		if !ok {
			t.Fatalf("round %d: search on %d nodes from %d (target %d, α %v) differs or left a stale entry", round, n, src, dst, alpha)
		}
	}
	if reused == 0 {
		t.Error("no search ran on scratch space a larger search had left")
	}
}

func TestAffinePanics(t *testing.T) {
	one := []Edge{{U: 0, V: 1, Weight: 1}}
	for name, fn := range map[string]func(){
		"out of range":    func() { NewAffine(2, []Edge{{U: 0, V: 2, Weight: 1}}, []float64{0}) },
		"self loop":       func() { NewAffine(2, []Edge{{U: 1, V: 1, Weight: 1}}, []float64{0}) },
		"negative weight": func() { NewAffine(2, []Edge{{U: 0, V: 1, Weight: -1}}, []float64{0}) },
		"nan weight":      func() { NewAffine(2, []Edge{{U: 0, V: 1, Weight: math.NaN()}}, []float64{0}) },
		"inf weight":      func() { NewAffine(2, []Edge{{U: 0, V: 1, Weight: math.Inf(1)}}, []float64{0}) },
		"slope count":     func() { NewAffine(2, one, nil) },
		"negative slope":  func() { NewAffine(2, one, []float64{-1}) },
		"nan slope":       func() { NewAffine(2, one, []float64{math.NaN()}) },
		"inf slope":       func() { NewAffine(2, one, []float64{math.Inf(1)}) },
		"reslope count":   func() { NewAffine(2, one, []float64{0}).WithSlopes([]float64{0, 1}) },
		"route target":    func() { NewAffine(2, one, []float64{0}).Route(0, 2, 1) },
		"guided target":   func() { NewAffine(2, one, []float64{0}).RouteGuided(0, -1, 1, func(int) float64 { return 0 }) },
		"sweep source":    func() { NewAffine(2, one, []float64{0}).Sweep(-1, 1) },
		"entering source": func() { NewAffine(2, one, []float64{0}).SweepEntering(2, []float64{0, 0}) },
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

func BenchmarkAffineRoute233(b *testing.B) {
	// BenchmarkShortestPathEarlyExit's graph and pairs, with the weights
	// computed inline from base and slope.
	rng := stats.NewRNG(29)
	g := randomConnectedGraph(rng, 233, 300)
	edges := g.Edges()
	slopes := make([]float64, len(edges))
	for e := range slopes {
		slopes[e] = rng.Float64()
	}
	n := g.N()
	a := NewAffine(n, edges, slopes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Route(i%n, (i+3)%n, 0.5).Release()
	}
}

// BenchmarkAffineRouteGuided233 is BenchmarkAffineRoute233's graph, pairs
// and weights searched by RouteGuided. The graph has no geometry, so the
// bound is a landmark's: |d(L, x) − d(L, target)| for the node L farthest
// from node 0, which the triangle inequality makes consistent, shrunk by a
// relative 1e-9 against rounding.
func BenchmarkAffineRouteGuided233(b *testing.B) {
	rng := stats.NewRNG(29)
	g := randomConnectedGraph(rng, 233, 300)
	edges := g.Edges()
	slopes := make([]float64, len(edges))
	for e := range slopes {
		slopes[e] = rng.Float64()
	}
	n := g.N()
	a := NewAffine(n, edges, slopes)
	s := a.Sweep(0, 0.5)
	far := 0
	for v, d := range s.Dist {
		if d > s.Dist[far] {
			far = v
		}
	}
	s.Release()
	s = a.Sweep(far, 0.5)
	landmark := append([]float64(nil), s.Dist...)
	s.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := landmark[(i+3)%n]
		s, _ := a.RouteGuided(i%n, (i+3)%n, 0.5, func(v int) float64 {
			return math.Abs(landmark[v]-t) * (1 - 1e-9)
		})
		s.Release()
	}
}
