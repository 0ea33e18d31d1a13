package core

import (
	"fmt"
	"math"
	"sort"

	"riskroute/internal/graph"
	"riskroute/internal/topology"
)

// The robustness analysis (Section 6.3, Equation 4) searches the candidate
// set E_C — PoP pairs that are not yet linked and whose direct link would
// cut the pair's bit-miles by more than 50%, the paper's rule for excluding
// impractical cross-country links — for the link whose addition minimizes
// the network's total aggregated bit-risk miles. Candidate scoring uses the
// α-bucket all-pairs tables with the exact single-added-edge identity, so
// each candidate costs O(N²) lookups instead of a full re-route.

// paperRule is the paper's E_C rule: a direct link must cut its pair's
// bit-miles by more than half.
const paperRule = 0.5

// Candidate is one potential new link with its scored objective.
type Candidate struct {
	Link topology.Link
	// Total is Equation 4's objective if this link were added (α-bucket
	// approximation, lower is better).
	Total float64
}

// CandidateLinks returns E_C sorted by endpoint indices: unlinked PoP pairs
// whose direct connection would reduce the pair's bit-miles by more than
// half.
func (e *Engine) CandidateLinks() []topology.Link {
	return e.candidates(e.adj.AllPairs(0), paperRule)
}

// candidates returns the unlinked PoP pairs whose direct link is shorter
// than (1−rule) of their shortest-path distance in dist, sorted by
// endpoint indices.
func (e *Engine) candidates(dist [][]float64, rule float64) []topology.Link {
	n := e.N()
	var out []topology.Link
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if e.adj.HasEdge(a, b) {
				continue
			}
			direct := e.Ctx.Net.LinkMiles(topology.Link{A: a, B: b})
			if direct < (1-rule)*dist[a][b] {
				out = append(out, topology.Link{A: a, B: b})
			}
		}
	}
	return out
}

// ScoreCandidates evaluates Equation 4 for every candidate link and returns
// them sorted by ascending objective (best first). Ties break toward lower
// endpoint indices for determinism.
func (e *Engine) ScoreCandidates(candidates []topology.Link) []Candidate {
	n := e.N()

	// Each pair's α bucket, found once (row-major over i < j), and one
	// all-pairs table per bucket some pair uses.
	pairBucket := make([]int, 0, n*(n-1)/2)
	tables := make([]*graph.AllPairsTable, len(e.buckets))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b := e.bucketOf(e.Ctx.Alpha(i, j))
			pairBucket = append(pairBucket, b)
			if tables[b] == nil {
				tables[b] = &graph.AllPairsTable{N: n, Dist: e.adj.AllPairs(e.buckets[b])}
			}
		}
	}

	out := make([]Candidate, 0, len(candidates))
	w := make([]float64, len(e.buckets)) // the candidate's weight per bucket
	for _, c := range candidates {
		for b := range w {
			w[b] = e.Ctx.EdgeWeight(c.A, c.B, e.buckets[b])
		}
		total := 0.0
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				b := pairBucket[k]
				k++
				d := tables[b].WithEdge(i, j, c.A, c.B, w[b])
				if !math.IsInf(d, 1) {
					total += d
				}
			}
		}
		out = append(out, Candidate{Link: c, Total: total})
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].Total != out[y].Total {
			return out[x].Total < out[y].Total
		}
		if out[x].Link.A != out[y].Link.A {
			return out[x].Link.A < out[y].Link.A
		}
		return out[x].Link.B < out[y].Link.B
	})
	return out
}

// BestAdditionalLink solves Equation 4: the candidate link whose addition
// minimizes the total aggregated bit-risk miles. Its candidates are E_C
// under the first of rules whose set is non-empty, each rule being the
// bit-mile reduction a direct link must beat; no rules means the paper's
// 0.5. It returns an error if every rule's set is empty.
func (e *Engine) BestAdditionalLink(rules ...float64) (Candidate, error) {
	best, _, err := e.bestLink(rules)
	return best, err
}

// bestLink is BestAdditionalLink that also returns the rule whose E_C the
// link came from.
func (e *Engine) bestLink(rules []float64) (Candidate, float64, error) {
	if len(rules) == 0 {
		rules = []float64{paperRule}
	}
	dist := e.adj.AllPairs(0)
	for _, rule := range rules {
		if cands := e.candidates(dist, rule); len(cands) > 0 {
			return e.ScoreCandidates(cands)[0], rule, nil
		}
	}
	return Candidate{}, 0, fmt.Errorf("core: network %q has no candidate links", e.Ctx.Net.Name)
}

// Addition records one step of the greedy link-addition sweep.
type Addition struct {
	Link topology.Link
	// Rule is the candidate rule whose E_C the link came from.
	Rule float64
	// TotalAfter is the network's exact total bit-risk miles after adding
	// this and all earlier links.
	TotalAfter float64
	// Fraction is TotalAfter divided by the original network's total — the
	// y-axis of the paper's Figure 10.
	Fraction float64
}

// WithLink returns the engine for e's network plus the link l, with e's
// options and a copy of its whole risk context, span risk and Impact
// included. The new link carries no span risk: nothing sampled its span.
// It builds from Ctx.Net, so links a WithoutLinks view failed are back.
func (e *Engine) WithLink(l topology.Link) (*Engine, error) {
	if n := e.N(); l.A < 0 || l.A >= n || l.B < 0 || l.B >= n || l.A == l.B {
		return nil, fmt.Errorf("core: added link %d-%d out of range or a self-loop", l.A, l.B)
	}
	ctx := *e.Ctx
	ctx.Net = e.Ctx.Net.Clone()
	if err := ctx.Net.AddLink(l.A, l.B); err != nil {
		return nil, err
	}
	return New(&ctx, e.opts)
}

// GreedyAdditionalLinks adds k links one at a time, each chosen by Equation
// 4 against the network as augmented so far (the paper's greedy
// methodology), and reports the exact objective after each addition. Each
// step is BestAdditionalLink(rules...), so a ladder of looser rules keeps
// the sweep going where a tighter rule's E_C runs dry. It stops early when
// a step finds no candidates under any rule.
func (e *Engine) GreedyAdditionalLinks(k int, rules ...float64) ([]Addition, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: GreedyAdditionalLinks needs k >= 1")
	}
	base := e.TotalBitRisk()
	if base == 0 {
		return nil, fmt.Errorf("core: zero base bit-risk")
	}

	cur := e
	var out []Addition
	for step := 0; step < k; step++ {
		best, rule, err := cur.bestLink(rules)
		if err != nil {
			break // no candidates left; return what we have
		}
		if cur, err = cur.WithLink(best.Link); err != nil {
			return nil, fmt.Errorf("core: greedy step %d: %w", step, err)
		}
		total := cur.TotalBitRisk()
		out = append(out, Addition{
			Link:       best.Link,
			Rule:       rule,
			TotalAfter: total,
			Fraction:   total / base,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: network %q has no candidate links", e.Ctx.Net.Name)
	}
	return out, nil
}
