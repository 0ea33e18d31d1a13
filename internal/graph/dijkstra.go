package graph

import (
	"math"
)

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// ShortestTree holds single-source shortest-path results: the distance to
// every node and the predecessor of every node on its shortest path.
type ShortestTree struct {
	Source int
	Dist   []float64 // Inf for unreachable nodes
	Prev   []int32   // -1 for the source and unreachable nodes
}

// PathTo reconstructs the shortest path from the tree's source to target as
// a node sequence including both endpoints. It returns nil if target is
// unreachable. The source's path is [source].
func (t *ShortestTree) PathTo(target int) []int {
	if target < 0 || target >= len(t.Dist) || math.IsInf(t.Dist[target], 1) {
		return nil
	}
	hops := 0
	for v := target; t.Prev[v] != -1; v = int(t.Prev[v]) {
		hops++
	}
	path := make([]int, hops+1)
	for v, x := target, hops; x >= 0; v, x = int(t.Prev[v]), x-1 {
		path[x] = v
	}
	return path
}

// Dijkstra computes single-source shortest paths from src using a binary
// heap. It panics if src is out of range. Ties resolve to the first path
// discovered, which is deterministic because adjacency lists preserve
// insertion order.
func (g *Graph) Dijkstra(src int) *ShortestTree {
	if src < 0 || src >= g.n {
		panic("graph: Dijkstra source out of range")
	}
	dist := make([]float64, g.n)
	prev := make([]int32, g.n)
	for i := range dist {
		dist[i] = Inf
		prev[i] = -1
	}
	dist[src] = 0

	h := make(heap, 0, g.n)
	h.push(src, 0)
	for len(h) > 0 {
		u, d := h.pop()
		if d > dist[u] {
			continue // stale entry
		}
		for _, e := range g.adj[u] {
			v := int(e.to)
			nd := d + e.weight
			if nd < dist[v] {
				dist[v] = nd
				prev[v] = int32(u)
				h.push(v, nd)
			}
		}
	}
	return &ShortestTree{Source: src, Dist: dist, Prev: prev}
}

// ShortestPath returns the minimum-weight path between u and v and its total
// weight. It returns (nil, +Inf) if v is unreachable from u. Unlike a full
// Dijkstra sweep, the search stops the moment v is settled — with
// non-negative weights its distance is final then — which roughly halves the
// work of typical point-to-point queries.
func (g *Graph) ShortestPath(u, v int) ([]int, float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic("graph: ShortestPath endpoints out of range")
	}
	dist := make([]float64, g.n)
	prev := make([]int32, g.n)
	for i := range dist {
		dist[i] = Inf
		prev[i] = -1
	}
	dist[u] = 0
	h := make(heap, 0, g.n)
	h.push(u, 0)
	for len(h) > 0 {
		node, d := h.pop()
		if d > dist[node] {
			continue
		}
		if node == v {
			break // settled: final with non-negative weights
		}
		for _, e := range g.adj[node] {
			to := int(e.to)
			nd := d + e.weight
			if nd < dist[to] {
				dist[to] = nd
				prev[to] = int32(node)
				h.push(to, nd)
			}
		}
	}
	t := &ShortestTree{Source: u, Dist: dist, Prev: prev}
	return t.PathTo(v), dist[v]
}

// AllPairs computes the full N×N shortest-path distance matrix by running
// Dijkstra from every source. Row i holds distances from node i.
func (g *Graph) AllPairs() [][]float64 {
	out := make([][]float64, g.n)
	for i := 0; i < g.n; i++ {
		out[i] = g.Dijkstra(i).Dist
	}
	return out
}

// PathWeight sums the graph's edge weights along the node sequence path,
// using the cheapest parallel edge for each hop. It returns +Inf if any
// consecutive pair is not connected by an edge, and 0 for paths with fewer
// than two nodes.
func (g *Graph) PathWeight(path []int) float64 {
	total := 0.0
	for i := 1; i < len(path); i++ {
		u, v := path[i-1], path[i]
		best := Inf
		for _, e := range g.adj[u] {
			if int(e.to) == v && e.weight < best {
				best = e.weight
			}
		}
		if math.IsInf(best, 1) {
			return Inf
		}
		total += best
	}
	return total
}

// heap is a binary min-heap of (node, priority) entries for the searches.
// Duplicate pushes are allowed; stale pops are filtered by the caller. Push
// and pop move a hole and write the moving entry once, making exactly the
// comparisons of a heap that swaps entries level by level, so entries pop
// in the same order.
type heap []heapEntry

type heapEntry struct {
	prio float64
	node int32
}

func (h *heap) push(node int, p float64) {
	*h = append(*h, heapEntry{})
	q := *h
	i := uint(len(q) - 1)
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].prio <= p {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = heapEntry{prio: p, node: int32(node)}
}

func (h *heap) pop() (int, float64) {
	q := *h
	n := uint(len(q) - 1)
	top, x := q[0], q[n]
	*h = (*h)[:n] // reslicing in place stores the length alone: no write barrier
	if n > 0 {
		q = q[:n]
		i := uint(0)
		for {
			smallest, p := i, x.prio
			if l := 2*i + 1; l < n && q[l].prio < p {
				smallest, p = l, q[l].prio
			}
			if r := 2*i + 2; r < n && q[r].prio < p {
				smallest = r
			}
			if smallest == i {
				break
			}
			q[i] = q[smallest]
			i = smallest
		}
		q[i] = x
	}
	return int(top.node), top.prio
}
