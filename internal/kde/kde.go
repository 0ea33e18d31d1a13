// Package kde implements two-dimensional Gaussian kernel density estimation
// over geographic event sets, the statistical core of the paper's historical
// outage risk model (Section 5.2). Given a catalog of disaster events
// (latitude/longitude points), the estimator
//
//	p̂(y) = 1/(2πσ²N) · Σ_i exp(−d(x_i, y)² / (2σ²))
//
// yields the outage likelihood surface, with the great-circle distance d in
// statute miles and a single tuning parameter: the kernel bandwidth σ. The
// bandwidth is selected by k-fold cross-validation minimizing the KL
// divergence between the held-out empirical distribution and the fitted
// density (Table 1 of the paper).
package kde

import (
	"math"

	"riskroute/internal/geo"
)

// Estimator is a fitted Gaussian kernel density estimate over a set of
// geographic events.
type Estimator struct {
	Events    []geo.Point
	Bandwidth float64 // kernel standard deviation σ, in miles
}

// New builds an estimator. It panics on an empty event set or non-positive
// bandwidth.
func New(events []geo.Point, bandwidth float64) *Estimator {
	if len(events) == 0 {
		panic("kde: empty event set")
	}
	if bandwidth <= 0 || math.IsNaN(bandwidth) {
		panic("kde: bandwidth must be positive")
	}
	return &Estimator{Events: events, Bandwidth: bandwidth}
}

// DensityAt evaluates the kernel density at p exactly, in events per square
// mile (the surface integrates to ≈1 over the plane).
func (e *Estimator) DensityAt(p geo.Point) float64 {
	sigma := e.Bandwidth
	inv2s2 := 1 / (2 * sigma * sigma)
	sum := 0.0
	for _, ev := range e.Events {
		d := geo.Distance(ev, p)
		sum += math.Exp(-d * d * inv2s2)
	}
	return sum / (2 * math.Pi * sigma * sigma * float64(len(e.Events)))
}
