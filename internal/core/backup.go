package core

import (
	"fmt"
	"math"

	"riskroute/internal/topology"
)

// Section 3 of the paper positions RiskRoute as the path-selection brain
// inside existing protection machinery: IP Fast Reroute (RFC 5714) and MPLS
// fast-reroute want a backup path per protected link or node, BGP
// "add paths" wants a set of diverse alternatives, and Section 6.4 sketches
// multi-objective routing that balances risk against SLA latency. This file
// implements those integrations on top of the bit-risk engine.

// BackupRoute is a protection path for one failure case along a primary
// route.
type BackupRoute struct {
	// FailedLink is the protected primary-path link (node indices).
	FailedLink topology.Link
	// Path is the minimum bit-risk route from the primary source to the
	// destination avoiding the failed link; nil if the failure partitions
	// the pair.
	Path         []int
	BitRiskMiles float64
	Miles        float64
}

// FastReroutePlan protects every link of the primary RiskRoute path between
// a pair: for each primary link, it computes the minimum bit-risk-mile
// detour that avoids the link (MPLS fast-reroute's single-link failure
// model, priced by RiskRoute as Section 3.1 proposes). Failures that
// disconnect the pair yield a BackupRoute with a nil Path.
func (e *Engine) FastReroutePlan(i, j int) (primary PairResult, backups []BackupRoute, err error) {
	primary = e.RiskRoutePair(i, j)
	if primary.Path == nil {
		return primary, nil, fmt.Errorf("core: no primary path between %d and %d", i, j)
	}
	alpha := e.Ctx.Alpha(i, j)
	for x := 1; x < len(primary.Path); x++ {
		failed := topology.Link{A: primary.Path[x-1], B: primary.Path[x]}
		// Route on a masked view without every link joining the failed pair.
		path, _ := e.adj.Without(e.adj.EdgesBetween(failed.A, failed.B), nil).ShortestPath(i, j, alpha)
		r := e.describe(path, i, j)
		backups = append(backups, BackupRoute{FailedLink: failed, Path: r.Path, BitRiskMiles: r.BitRiskMiles, Miles: r.Miles})
	}
	return primary, backups, nil
}

// DiversePaths returns up to k loopless routes between i and j in
// increasing bit-risk-mile order — the alternative set RiskRoute would feed
// BGP's "add paths" mechanism for inter-domain fast restoration. k must be
// positive.
func (e *Engine) DiversePaths(i, j, k int) []PairResult {
	paths, _ := e.adj.KShortestPaths(i, j, k, e.Ctx.Alpha(i, j))
	out := make([]PairResult, 0, len(paths))
	for _, p := range paths {
		out = append(out, e.describe(p, i, j))
	}
	return out
}

// SLAConstrainedPair solves Section 6.4's multi-objective variant: the
// minimum bit-risk-mile path whose geographic length stays within
// (1+maxStretch) of the shortest path — the SLA's latency budget. The
// search enumerates the k geographically shortest loopless paths (k =
// searchWidth, default 16 when zero) and prices each in bit-risk miles;
// with a wide enough search this is exact, and the shortest path itself is
// always feasible, so a result is guaranteed. An infinite maxStretch sets
// no budget; a negative or NaN one is rejected.
func (e *Engine) SLAConstrainedPair(i, j int, maxStretch float64, searchWidth int) (PairResult, error) {
	if !(maxStretch >= 0) {
		return PairResult{}, fmt.Errorf("core: invalid SLA stretch %v", maxStretch)
	}
	if searchWidth <= 0 {
		searchWidth = 16
	}
	paths, miles := e.adj.KShortestPaths(i, j, searchWidth, 0)
	if len(paths) == 0 {
		return PairResult{}, fmt.Errorf("core: no path between %d and %d", i, j)
	}
	budget := miles[0] * (1 + maxStretch)
	best := PairResult{BitRiskMiles: math.Inf(1)}
	for idx, p := range paths {
		if miles[idx] > budget+1e-9 {
			break // k-shortest order: everything after is longer
		}
		r := e.describe(p, i, j)
		if r.BitRiskMiles < best.BitRiskMiles {
			best = r
		}
	}
	return best, nil
}
