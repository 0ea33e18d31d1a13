// Package stats provides the small statistical toolkit RiskRoute needs:
// deterministic pseudo-random number generation for reproducible synthetic
// datasets, descriptive statistics, simple linear regression with the R²
// coefficient of determination (Table 3 of the paper), KL divergence (the
// kernel-bandwidth cross-validation criterion, Section 5.2), and k-fold
// splitting.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. It panics on an empty slice or a
// quantile outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit holds the result of an ordinary-least-squares fit y = a + b·x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination in [0, 1]
}

// Linregress fits y = a + b·x by ordinary least squares and reports the R²
// coefficient of determination, the statistic the paper uses in Table 3 to
// relate network characteristics to RiskRoute performance. It panics if the
// slices differ in length or have fewer than two points. A degenerate x
// (zero variance) yields a flat fit with R² = 0.
func Linregress(x, y []float64) LinearFit {
	if len(x) != len(y) {
		panic("stats: Linregress length mismatch")
	}
	if len(x) < 2 {
		panic("stats: Linregress needs at least two points")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Intercept: my}
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return LinearFit{Intercept: a, Slope: b, R2: r2}
}

// KLDivergence returns the Kullback-Leibler divergence D(p ‖ q) in nats for
// two discrete distributions given as unnormalized non-negative weights.
// Both inputs are normalized internally. Bins where p is zero contribute
// nothing; bins where p > 0 but q = 0 are handled by flooring q at a tiny
// epsilon, mirroring common practice in density cross-validation. It panics
// on length mismatch or empty input.
func KLDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("stats: KLDivergence length mismatch")
	}
	if len(p) == 0 {
		panic("stats: KLDivergence of empty distributions")
	}
	const eps = 1e-12
	sp, sq := Sum(p), Sum(q)
	if sp <= 0 || sq <= 0 {
		panic("stats: KLDivergence of all-zero distribution")
	}
	d := 0.0
	for i := range p {
		pi := p[i] / sp
		if pi <= 0 {
			continue
		}
		qi := q[i] / sq
		if qi < eps {
			qi = eps
		}
		d += pi * math.Log(pi/qi)
	}
	if d < 0 {
		d = 0 // clamp tiny negative values from floating-point noise
	}
	return d
}

// KFold partitions the indices 0..n-1 into k contiguous folds after a
// deterministic shuffle driven by rng. Every index appears in exactly one
// fold and fold sizes differ by at most one. It panics unless 2 ≤ k ≤ n.
func KFold(n, k int, rng *RNG) [][]int {
	if k < 2 || k > n {
		panic("stats: KFold requires 2 <= k <= n")
	}
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		f := i % k
		folds[f] = append(folds[f], idx)
	}
	return folds
}
