package core

import (
	"fmt"
	"math"
	"sort"

	"riskroute/internal/graph"
	"riskroute/internal/topology"
)

// Section 3.1 of the paper proposes folding RiskRoute directly into
// standard intra-domain routing: OSPF and IS-IS route on per-link weights,
// so a composite weight that blends geographic distance with the
// RiskRoute risk term makes every router's ordinary shortest-path
// computation risk-averse — no new protocol machinery. Because OSPF weights
// are global (they cannot depend on which pair is communicating), the
// export fixes the impact factor at a representative value and quantizes
// the result into OSPF's 16-bit metric space.

// OSPFWeight is one exported link weight.
type OSPFWeight struct {
	Link   topology.Link
	Miles  float64
	Risk   float64 // the α̅-scaled risk component, in mile-equivalents
	Weight int     // quantized OSPF metric in [1, 65535]
}

// OSPFExport is a complete composite link-weight configuration.
type OSPFExport struct {
	// Alpha is the representative impact factor the export used (the mean
	// pairwise α by default).
	Alpha float64
	// MilesPerUnit is the quantization scale: OSPF metric 1 corresponds to
	// this many bit-risk miles.
	MilesPerUnit float64
	Weights      []OSPFWeight
}

// ExportOSPFWeights computes composite OSPF link weights w(u,v) =
// d(u,v) + α̅·(ρ(u)+ρ(v))/2, with α̅ the mean pairwise impact factor, scaled
// into [1, 65535]. Shortest-path routing on the exported weights equals
// RiskRoute routing at α = α̅ up to quantization; VerifyOSPFExport measures
// the residual divergence.
func (e *Engine) ExportOSPFWeights() (*OSPFExport, error) {
	if e.N() < 2 {
		return nil, fmt.Errorf("core: network too small for weight export")
	}
	meanAlpha := e.meanAlpha()

	raw := make([]float64, 0, len(e.Ctx.Net.Links))
	maxW := 0.0
	for _, l := range e.Ctx.Net.Links {
		w := e.Ctx.EdgeWeight(l.A, l.B, meanAlpha)
		raw = append(raw, w)
		if w > maxW {
			maxW = w
		}
	}
	if maxW <= 0 {
		return nil, fmt.Errorf("core: degenerate link weights")
	}
	scale := maxW / 65535.0

	out := &OSPFExport{Alpha: meanAlpha, MilesPerUnit: scale}
	for idx, l := range e.Ctx.Net.Links {
		miles := e.Ctx.Net.LinkMiles(l)
		q := int(math.Round(raw[idx] / scale))
		if q < 1 {
			q = 1
		}
		if q > 65535 {
			q = 65535
		}
		out.Weights = append(out.Weights, OSPFWeight{
			Link:   l,
			Miles:  miles,
			Risk:   raw[idx] - miles,
			Weight: q,
		})
	}
	sort.Slice(out.Weights, func(a, b int) bool {
		wa, wb := out.Weights[a].Link, out.Weights[b].Link
		if wa.A != wb.A {
			return wa.A < wb.A
		}
		return wa.B < wb.B
	})
	return out, nil
}

// meanAlpha is α̅ = 2·mean(c_i), the mean of c_i + c_j over pairs: the
// representative impact of the OSPF export and the forwarding table.
func (e *Engine) meanAlpha() float64 {
	sum := 0.0
	for _, f := range e.Ctx.Fractions {
		sum += f
	}
	return 2 * sum / float64(e.N())
}

// VerifyOSPFExport routes every pair on the quantized OSPF weights and on
// the exact α̅-weighted graph and returns the fraction of pairs whose
// bit-risk cost differs by more than tolerance (relative). Small networks
// verify exhaustively; for larger ones a deterministic sample of pairs is
// used (sampleCap pairs, default 2000 when zero). A tolerance that is not
// positive (NaN included) selects the default, 0.01.
func (e *Engine) VerifyOSPFExport(export *OSPFExport, tolerance float64, sampleCap int) (float64, error) {
	if !(tolerance > 0) {
		tolerance = 0.01
	}
	if sampleCap <= 0 {
		sampleCap = 2000
	}
	n := e.N()

	// The quantized metrics as a kernel of their own: base weights in
	// export order, zero slopes.
	edges := make([]graph.Edge, len(export.Weights))
	for k, w := range export.Weights {
		edges[k] = graph.Edge{U: w.Link.A, V: w.Link.B, Weight: float64(w.Weight)}
	}
	ospf := graph.NewAffine(n, edges, make([]float64, len(edges)))

	type pair struct{ i, j int }
	var pairs []pair
	total := n * (n - 1) / 2
	if total <= sampleCap {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, pair{i, j})
			}
		}
	} else {
		stride := total/sampleCap + 1
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if k%stride == 0 {
					pairs = append(pairs, pair{i, j})
				}
				k++
			}
		}
	}

	mismatches := 0
	checked := 0
	for _, p := range pairs {
		oPath, _ := ospf.ShortestPath(p.i, p.j, 0)
		ePath, eCost := e.adj.ShortestPath(p.i, p.j, export.Alpha)
		if oPath == nil || ePath == nil {
			continue
		}
		// Compare the OSPF-selected path's exact cost to the optimum.
		oCost := e.adj.PathWeight(oPath, export.Alpha)
		checked++
		if eCost > 0 && (oCost-eCost)/eCost > tolerance {
			mismatches++
		}
	}
	if checked == 0 {
		return 0, fmt.Errorf("core: no verifiable pairs")
	}
	return float64(mismatches) / float64(checked), nil
}
