package graph

import (
	"fmt"
	"math"
	"sync"
)

// Affine is an immutable compressed-sparse-row (CSR) adjacency of an
// undirected graph whose edge weights are affine in one scalar α:
//
//	w_e(α) = Base_e + α·Slope_e
//
// One adjacency therefore serves searches at every α: the kernel computes
// each weight inline as it relaxes the edge, instead of materializing a
// weighted graph per α. Node u's half-edges sit in one contiguous run, in
// the order the edges were given — the order AddEdge appends them to a
// Graph — so a search breaks ties exactly as Dijkstra on the same edges in
// a Graph does.
//
// Failures are masked views: Without derives an adjacency with some edges
// and nodes removed, which every query treats as the graph of the surviving
// edges while edge indices keep naming the original edges.
//
// A pair search can be goal-directed: RouteGuided takes a lower bound on
// each node's remaining cost to the target and pops nodes by label plus
// bound (A*), so it settles fewer nodes than Route, yet returns Route's
// path, Via chain and target label bit for bit (see guide).
//
// An Affine is read-only once built and safe for concurrent searches; each
// search runs on scratch space drawn from a pool.
type Affine struct {
	n     int
	start []int32   // node u's half-edges are [start[u], start[u+1])
	arcs  []arc     // the half-edges; WithSlopes shares them
	slope []float64 // Slope_e of each half-edge's edge
}

// arc is one half-edge: its head node, the index of its undirected edge,
// and that edge's base weight (+Inf when a masked view removed the edge).
type arc struct {
	to, edge int32
	base     float64
}

func (e arc) masked() bool { return math.IsInf(e.base, 1) }

// NewAffine builds the adjacency of an undirected graph over nodes 0..n-1:
// edge e joins edges[e].U and edges[e].V with base weight edges[e].Weight
// and slope slopes[e]. It panics on what AddEdge rejects (out-of-range
// nodes, self-loops, negative or NaN base weights), on +Inf base weights
// (the mark of a masked edge) and on slopes that are misaligned, negative
// or not finite.
func NewAffine(n int, edges []Edge, slopes []float64) *Affine {
	if n < 0 {
		panic("graph: negative node count")
	}
	a := &Affine{
		n:     n,
		start: make([]int32, n+1),
		arcs:  make([]arc, 2*len(edges)),
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n))
		}
		if e.U == e.V {
			panic(fmt.Sprintf("graph: self-loop at %d", e.U))
		}
		if !(e.Weight >= 0) || math.IsInf(e.Weight, 1) {
			panic(fmt.Sprintf("graph: invalid weight %v on edge (%d,%d)", e.Weight, e.U, e.V))
		}
		a.start[e.U+1]++
		a.start[e.V+1]++
	}
	for u := 0; u < n; u++ {
		a.start[u+1] += a.start[u]
	}
	next := make([]int32, n)
	copy(next, a.start[:n])
	for i, e := range edges {
		ku, kv := next[e.U], next[e.V]
		next[e.U]++
		next[e.V]++
		a.arcs[ku] = arc{to: int32(e.V), edge: int32(i), base: e.Weight}
		a.arcs[kv] = arc{to: int32(e.U), edge: int32(i), base: e.Weight}
	}
	a.slope = a.spread(slopes)
	return a
}

// WithSlopes returns an adjacency that shares a's topology and base weights
// and carries new per-edge slopes, index-aligned with the edges NewAffine
// was given. The refresh is O(E); a is unchanged. It panics on slopes that
// are misaligned, negative or not finite.
func (a *Affine) WithSlopes(slopes []float64) *Affine {
	c := *a
	c.slope = a.spread(slopes)
	return &c
}

// Without returns a masked view of a without the given edges (indices into
// the edges NewAffine was given) and every edge touching the given nodes.
// It copies the half-edges in O(N+E) and shares the rest. A removed
// half-edge keeps its place at base weight +Inf, which no search relaxes,
// so searches over the view relax exactly the arcs, in the same order, of a
// search over the surviving edges, and Via keeps naming original edges.
// Every other query skips removed edges too, but Graph, which keeps them at
// weight +Inf. It panics on out-of-range indices.
func (a *Affine) Without(edges, nodes []int) *Affine {
	dead := make([]bool, a.M())
	for _, e := range edges {
		dead[e] = true
	}
	for _, v := range nodes {
		for _, e := range a.arcs[a.start[v]:a.start[v+1]] {
			dead[e.edge] = true
		}
	}
	c := *a
	c.arcs = append([]arc(nil), a.arcs...)
	for k, e := range c.arcs {
		if dead[e.edge] {
			c.arcs[k].base = Inf
		}
	}
	return &c
}

// spread copies per-edge slopes onto the half-edges.
func (a *Affine) spread(slopes []float64) []float64 {
	if len(slopes) != a.M() {
		panic(fmt.Sprintf("graph: %d slopes for %d edges", len(slopes), a.M()))
	}
	for e, s := range slopes {
		if !(s >= 0) || math.IsInf(s, 1) {
			panic(fmt.Sprintf("graph: invalid slope %v on edge %d", s, e))
		}
	}
	out := make([]float64, len(a.arcs))
	for k, e := range a.arcs {
		out[k] = slopes[e.edge]
	}
	return out
}

// M returns the number of undirected edges.
func (a *Affine) M() int { return len(a.arcs) / 2 }

// HasEdge reports whether at least one edge connects u and v, in O(deg u).
func (a *Affine) HasEdge(u, v int) bool {
	for _, e := range a.arcs[a.start[u]:a.start[u+1]] {
		if int(e.to) == v && !e.masked() {
			return true
		}
	}
	return false
}

// Graph materializes the adjacency as a Graph with weights Base +
// alpha·Slope for alpha >= 0: the graph that adding each edge in turn with
// AddEdge builds, without recomputing any weight's inputs.
func (a *Affine) Graph(alpha float64) *Graph {
	half := make([]halfEdge, len(a.arcs))
	for k, e := range a.arcs {
		half[k] = halfEdge{to: e.to, weight: e.base + alpha*a.slope[k]}
	}
	g := &Graph{n: a.n, adj: make([][]halfEdge, a.n), m: a.M()}
	for u := range g.adj {
		if lo, hi := a.start[u], a.start[u+1]; lo < hi {
			g.adj[u] = half[lo:hi:hi]
		}
	}
	return g
}

// Components labels each node with its connected component and returns
// each component's node count. Components are numbered in order of their
// lowest node — Graph.Components' order — and removed edges join nothing.
func (a *Affine) Components() (label []int32, sizes []int) {
	label = make([]int32, a.n)
	for v := range label {
		label[v] = -1
	}
	stack := make([]int32, 0, a.n)
	for s := range label {
		if label[s] >= 0 {
			continue
		}
		c := int32(len(sizes))
		label[s], stack = c, append(stack, int32(s))
		sizes = append(sizes, 0)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sizes[c]++
			for _, e := range a.arcs[a.start[u]:a.start[u+1]] {
				if label[e.to] < 0 && !e.masked() {
					label[e.to] = c
					stack = append(stack, e.to)
				}
			}
		}
	}
	return label, sizes
}

// EdgesBetween returns the index of every edge joining u and v.
func (a *Affine) EdgesBetween(u, v int) []int {
	var edges []int
	for _, e := range a.arcs[a.start[u]:a.start[u+1]] {
		if int(e.to) == v && !e.masked() {
			edges = append(edges, int(e.edge))
		}
	}
	return edges
}

// ShortestPath returns the minimum-weight u→v path under weights Base +
// alpha·Slope and its weight, or (nil, +Inf) when v is unreachable:
// Graph.ShortestPath over the adjacency.
func (a *Affine) ShortestPath(u, v int, alpha float64) ([]int, float64) {
	s := a.Route(u, v, alpha)
	defer s.Release()
	return s.PathTo(v), s.Dist[v]
}

// PathWeight sums weights Base + alpha·Slope along the node sequence path,
// taking each hop's cheapest parallel edge: Graph.PathWeight on the
// materialized graph. It returns +Inf if a hop has no edge, and 0 for paths
// with fewer than two nodes.
func (a *Affine) PathWeight(path []int, alpha float64) float64 {
	total := 0.0
	for i := 1; i < len(path); i++ {
		u, v := path[i-1], int32(path[i])
		best := Inf
		for k := a.start[u]; k < a.start[u+1]; k++ {
			if e := a.arcs[k]; e.to == v {
				if w := e.base + alpha*a.slope[k]; w < best {
					best = w
				}
			}
		}
		if math.IsInf(best, 1) {
			return Inf
		}
		total += best
	}
	return total
}

// Search is the result of one search over an Affine, held in pooled
// scratch space. Its slices are for reading only, and they stay valid
// until Release hands the space to the next search.
type Search struct {
	ShortestTree
	// Via holds, for each reached node other than the source, the index of
	// the edge its shortest path arrives by; -1 elsewhere.
	Via []int32
	// Order lists the settled nodes in the order the search settled them,
	// source first, so every node follows its predecessor. A guided search
	// lists each node it expands, once per expansion.
	Order []int32
	// touched lists each node whose Dist the search wrote, source first,
	// for reset to restore.
	touched []int32
	bound   []float64 // a guided search's bound per reached node
	h       heap
}

var searchPool = sync.Pool{New: func() any { return new(Search) }}

// Release returns the search's scratch space to the pool. The search must
// not be used afterwards.
func (s *Search) Release() { searchPool.Put(s) }

// Route searches from u under weights Base + alpha·Slope and stops as soon
// as v is settled — the early exit of Graph.ShortestPath. Only v's entries
// (and those of the nodes on its path) are final; PathTo(v) is nil when v
// is unreachable.
func (a *Affine) Route(u, v int, alpha float64) *Search {
	if v < 0 || v >= a.n {
		panic("graph: Route target out of range")
	}
	s, _ := a.search(u, v, alpha, nil)
	return s
}

// RouteGuided is Route steered toward v by bound, a lower bound on each
// node's remaining cost: bound(x) must not exceed the weight of any path
// from x to v (the exact sum of its Base + alpha·Slope weights), so
// bound(v) <= 0. The search pops nodes by label plus bound (A*) and
// returns Route's answer: PathTo(v), the Via chain along it and Dist[v]
// equal Route's bit for bit, while other entries may differ. When a
// relaxation ties a node's label, the guided search cannot tell which arc
// Route would keep, so it runs Route instead and reports fellBack. A
// consistent bound (bound(x) <= w + bound(y) on every edge x–y) expands
// each node at most once but for rounding.
func (a *Affine) RouteGuided(u, v int, alpha float64, bound func(node int) float64) (s *Search, fellBack bool) {
	if v < 0 || v >= a.n {
		panic("graph: Route target out of range")
	}
	s, tied := a.search(u, v, alpha, bound)
	if !tied {
		return s, false
	}
	s.Release()
	return a.Route(u, v, alpha), true
}

// Sweep computes single-source shortest paths from src under weights
// Base + alpha·Slope — the full sweep of Graph.Dijkstra.
func (a *Affine) Sweep(src int, alpha float64) *Search {
	s, _ := a.search(src, -1, alpha, nil)
	return s
}

// SweepEntering computes single-source shortest paths from src in which an
// arc costs cost[v] of the node v it enters, whatever its edge's weights:
// Dist[v] is the least sum of cost over the nodes of a src→v path but src.
// Masked edges join nothing. cost must hold a finite, non-negative value
// per node. Like Sweep, it runs on pooled scratch space and allocates
// nothing once the pool is warm.
func (a *Affine) SweepEntering(src int, cost []float64) *Search {
	if src < 0 || src >= a.n {
		panic("graph: search source out of range")
	}
	s := searchPool.Get().(*Search)
	s.reset(a.n, src)
	dist, prev, via := s.Dist, s.Prev, s.Via
	s.h.push(src, 0)
	for len(s.h) > 0 {
		u, d := s.h.pop()
		if d > dist[u] {
			continue // stale entry
		}
		s.Order = append(s.Order, int32(u))
		for _, e := range a.arcs[a.start[u]:a.start[u+1]] {
			if e.masked() {
				continue
			}
			if nd, dv := d+cost[e.to], dist[e.to]; nd < dv {
				if math.IsInf(dv, 1) {
					s.touched = append(s.touched, e.to)
				}
				dist[e.to] = nd
				prev[e.to] = int32(u)
				via[e.to] = e.edge
				s.h.push(int(e.to), nd)
			}
		}
	}
	return s
}

// closeSlack is the relative margin by which a guided search's close test
// exceeds the target's label: far above the rounding a float sum along a
// path of up to millions of hops can lose (about one unit in 2^53 per hop),
// far below any gap that decides a route.
const closeSlack = 1e-9

// search is the kernel behind Route (dst >= 0), Sweep (dst = -1) and
// RouteGuided (a non-nil bound, which guide runs). Its heap discipline,
// strict-improvement test and early exit are exactly Graph.ShortestPath's,
// and each weight keeps EdgeWeight's shape m + α·r, so answers match the
// materialized-graph search bit for bit. tied is guide's report.
func (a *Affine) search(src, dst int, alpha float64, bound func(int) float64) (s *Search, tied bool) {
	if src < 0 || src >= a.n {
		panic("graph: search source out of range")
	}
	s = searchPool.Get().(*Search)
	s.reset(a.n, src)
	if bound != nil {
		return s, a.guide(s, dst, alpha, bound)
	}
	dist, prev, via := s.Dist, s.Prev, s.Via
	s.h.push(src, 0)
	for len(s.h) > 0 {
		u, d := s.h.pop()
		if d > dist[u] {
			continue // stale entry
		}
		s.Order = append(s.Order, int32(u))
		if u == dst {
			break // settled: final with non-negative weights
		}
		lo, hi := a.start[u], a.start[u+1]
		arcs := a.arcs[lo:hi]
		slope := a.slope[lo:hi]
		slope = slope[:len(arcs)] // equal lengths let slope[k] skip its bounds check
		for k, e := range arcs {
			w := e.base + alpha*slope[k]
			if nd, dv := d+w, dist[e.to]; nd < dv {
				if math.IsInf(dv, 1) {
					s.touched = append(s.touched, e.to)
				}
				dist[e.to] = nd
				prev[e.to] = int32(u)
				via[e.to] = e.edge
				s.h.push(int(e.to), nd)
			}
		}
	}
	return s, false
}

// guide runs search's relaxations toward dst, popping each node by its
// label plus bound (the entry's key), and reports whether any relaxation
// tied a node's finite label. It reopens a node whose label drops after
// its expansion, so only admissibility, not consistency, matters for the
// answer, and it closes only once the smallest key left exceeds dst's
// label by more than closeSlack, never expanding dst itself.
//
// Why an untied guided search returns Route's answer bit for bit:
//   - Every label it assigns is the float sum, left to right, of some
//     path's weights. Route's labels are the least such sums (adding a
//     non-negative weight is monotone and never decreases a sum), so no
//     label here ever falls below Route's.
//   - Let Q be Route's path to dst; each node on it is expanded at Route's
//     label. Induction along Q: once a node's predecessor on Q is expanded
//     at its label, the node holds its own Route label, pushed with key
//     label + bound. The bound never exceeds Q's remaining weight, and the
//     float sums along Q round away at most one unit in 2^53 per hop, so
//     that key is at most dst's label times 1 + closeSlack: it pops before
//     the search closes, and it is not stale, since no label drops below
//     Route's. So dst ends at Route's label too.
//   - Each node on Q thus receives Route's label along Q's arc. Had any
//     other arc delivered the same value, before or after, the later of
//     the two relaxations would have tied. With no tie, that arc set the
//     node's Prev and Via, so the path and its Via chain are Route's.
//
// A tie anywhere makes the caller fall back to Route, even where it would
// not change the answer.
func (a *Affine) guide(s *Search, dst int, alpha float64, bound func(int) float64) (tied bool) {
	dist, prev, via, hv := s.Dist, s.Prev, s.Via, s.bound
	src := s.Source
	hv[src] = bound(src)
	s.h.push(src, hv[src])
	for len(s.h) > 0 {
		u, key := s.h.pop()
		if key > dist[dst]+dist[dst]*closeSlack {
			break // every entry left prices above dst's label
		}
		d := dist[u]
		if key > d+hv[u] {
			continue // stale entry
		}
		s.Order = append(s.Order, int32(u))
		if u == dst {
			continue // settled; keep closing
		}
		lo, hi := a.start[u], a.start[u+1]
		arcs := a.arcs[lo:hi]
		slope := a.slope[lo:hi]
		slope = slope[:len(arcs)]
		for k, e := range arcs {
			w := e.base + alpha*slope[k]
			nd, dv := d+w, dist[e.to]
			if nd < dv {
				if math.IsInf(dv, 1) { // first reached: dist was reset to Inf
					hv[e.to] = bound(int(e.to))
					s.touched = append(s.touched, e.to)
				}
				dist[e.to] = nd
				prev[e.to] = int32(u)
				via[e.to] = e.edge
				s.h.push(int(e.to), nd+hv[e.to])
			} else if nd == dv && dv < Inf {
				tied = true
			}
		}
	}
	return tied
}

// AllPairs returns the N×N shortest-path distance matrix under weights
// Base + alpha·Slope, one Sweep per source: Graph.AllPairs without
// materializing the weighted graph. Row i holds distances from node i.
func (a *Affine) AllPairs(alpha float64) [][]float64 {
	out := make([][]float64, a.n)
	for i := range out {
		s := a.Sweep(i, alpha)
		out[i] = append([]float64(nil), s.Dist...)
		s.Release()
	}
	return out
}

// reset readies the scratch space for an n-node search from src, whose
// label is 0. Between searches every entry of Dist, Prev and Via up to
// their capacity reads Inf, -1 and -1: each search lists in touched the
// nodes whose Dist it wrote, and reset restores only those, so it costs
// what the last search reached, not n.
func (s *Search) reset(n, src int) {
	if cap(s.Dist) < n {
		s.Dist = make([]float64, n)
		s.Prev = make([]int32, n)
		s.Via = make([]int32, n)
		for i := range s.Dist {
			s.Dist[i], s.Prev[i], s.Via[i] = Inf, -1, -1
		}
		s.Order = make([]int32, 0, n)
		s.touched = make([]int32, 0, n)
		s.bound = make([]float64, n)
	}
	dist, prev, via := s.Dist[:cap(s.Dist)], s.Prev[:cap(s.Prev)], s.Via[:cap(s.Via)]
	for _, v := range s.touched {
		dist[v], prev[v], via[v] = Inf, -1, -1
	}
	s.Source = src
	s.Dist, s.Prev, s.Via, s.bound = dist[:n], prev[:n], via[:n], s.bound[:n]
	s.Dist[src] = 0
	s.touched = append(s.touched[:0], int32(src))
	s.Order = s.Order[:0]
	s.h = s.h[:0]
}
