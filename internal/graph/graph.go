// Package graph implements the weighted undirected graph machinery RiskRoute
// routes over: adjacency structures, binary-heap Dijkstra with path recovery,
// all-pairs distance tables, and the incremental "what if we add this edge"
// evaluation used by the paper's robustness analysis (Equation 4).
//
// Nodes are dense integer indices 0..N-1 so the routing core can overlay
// arbitrary weight functions (bit-risk miles under different tuning
// parameters) on one topology without copying it.
package graph

import (
	"fmt"
	"math"
)

// Edge is an undirected weighted edge between two node indices.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is a weighted undirected graph over nodes 0..N-1 backed by adjacency
// lists. Parallel edges are permitted (the cheapest wins during search);
// self-loops are rejected.
type Graph struct {
	n   int
	adj [][]halfEdge
	m   int
}

type halfEdge struct {
	to     int32
	weight float64
}

// New creates a graph with n nodes and no edges. It panics if n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([][]halfEdge, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts an undirected edge between u and v with the given weight.
// It panics on out-of-range nodes, self-loops, or negative/NaN weights
// (Dijkstra requires non-negative weights).
func (g *Graph) AddEdge(u, v int, weight float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if weight < 0 || math.IsNaN(weight) {
		panic(fmt.Sprintf("graph: invalid weight %v on edge (%d,%d)", weight, u, v))
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: int32(v), weight: weight})
	g.adj[v] = append(g.adj[v], halfEdge{to: int32(u), weight: weight})
	g.m++
}

// HasEdge reports whether at least one edge connects u and v.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	for _, e := range g.adj[u] {
		if int(e.to) == v {
			return true
		}
	}
	return false
}

// Edges returns every undirected edge exactly once (u < v for each).
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if u < int(e.to) {
				edges = append(edges, Edge{U: u, V: int(e.to), Weight: e.weight})
			}
		}
	}
	return edges
}

// Connected reports whether the graph is connected (true for empty and
// single-node graphs).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.to] {
				seen[e.to] = true
				count++
				stack = append(stack, int(e.to))
			}
		}
	}
	return count == g.n
}

// Components returns the connected components as slices of node indices.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for start := 0; start < g.n; start++ {
		if seen[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range g.adj[u] {
				if !seen[e.to] {
					seen[e.to] = true
					stack = append(stack, int(e.to))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
