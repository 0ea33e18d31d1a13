package core

import (
	"fmt"
	"math"

	"riskroute/internal/graph"
)

// RFC 5714 IP Fast Reroute — which Section 3 of the paper names as the
// natural deployment vehicle for RiskRoute ("an algorithm for backup/repair
// path calculation") — is destination-based: each router holds, per
// destination, a primary next hop and a precomputed loop-free alternate
// (LFA) to use the instant the primary fails, no reconvergence needed. A
// neighbor n of source s is a loop-free alternate for destination d when
//
//	dist(n, d) < dist(n, s) + dist(s, d)
//
// (n's best path to d does not come back through s). Distances here are
// bit-risk weights at the network-wide representative impact α̅, the same
// fixed-α compromise the OSPF weight export uses — forwarding state must be
// consistent across routers, so it cannot depend on the communicating pair.

// ForwardingEntry is one destination's forwarding state at a source router.
type ForwardingEntry struct {
	Dest int
	// NextHop is the primary risk-aware next hop (-1 for the source itself
	// or unreachable destinations).
	NextHop int
	// Backup is the best loop-free alternate next hop, or -1 when no
	// neighbor satisfies the LFA condition.
	Backup int
}

// ForwardingTable computes the full destination-based forwarding table at
// src under α̅-weighted bit-risk routing, with the best (lowest alternate
// cost) loop-free alternate per destination.
func (e *Engine) ForwardingTable(src int) ([]ForwardingEntry, error) {
	n := e.N()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("core: forwarding source %d out of range", src)
	}
	alpha := e.meanAlpha()
	srcTree := e.adj.Sweep(src, alpha)
	defer srcTree.Release()

	// One sweep per neighbor of src gives every dist(n, ·) we need. The
	// neighbors come in adjacency order (src's links in link order), each
	// one hop away at its cheapest parallel link.
	type neighbor struct {
		node int
		w    float64
		tree *graph.Search
	}
	var neighbors []neighbor
	seen := map[int]bool{}
	for _, l := range e.Ctx.Net.Links {
		// v is the far end of a link at src.
		if v := l.A + l.B - src; (l.A == src || l.B == src) && !seen[v] {
			seen[v] = true
			nb := neighbor{node: v, w: e.adj.PathWeight([]int{src, v}, alpha), tree: e.adj.Sweep(v, alpha)}
			defer nb.tree.Release()
			neighbors = append(neighbors, nb)
		}
	}

	out := make([]ForwardingEntry, 0, n-1)
	for d := 0; d < n; d++ {
		if d == src {
			continue
		}
		entry := ForwardingEntry{Dest: d, NextHop: -1, Backup: -1}
		if !math.IsInf(srcTree.Dist[d], 1) {
			path := srcTree.PathTo(d)
			entry.NextHop = path[1]

			// Best LFA: loop-free neighbors other than the primary,
			// minimizing the via-neighbor cost.
			bestCost := math.Inf(1)
			for _, nb := range neighbors {
				if nb.node == entry.NextHop {
					continue
				}
				if math.IsInf(nb.tree.Dist[d], 1) {
					continue
				}
				if nb.tree.Dist[d] < nb.tree.Dist[src]+srcTree.Dist[d] {
					if cost := nb.w + nb.tree.Dist[d]; cost < bestCost {
						bestCost = cost
						entry.Backup = nb.node
					}
				}
			}
		}
		out = append(out, entry)
	}
	return out, nil
}
