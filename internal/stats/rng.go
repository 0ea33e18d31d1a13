package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (SplitMix64) used to synthesize the census, disaster, and topology data
// sets. A dedicated generator (rather than math/rand) guarantees identical
// streams across Go versions, which keeps golden experiment outputs stable.
type RNG struct {
	state uint64
	// spare holds a cached second normal deviate from Box-Muller.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Gamma is SplitMix64's state increment, the odd integer nearest 2^64/φ.
const Gamma = 0x9E3779B97F4A7C15

// SplitMix64 returns the output of the SplitMix64 step taken from state x:
// advance by Gamma, then mix. As a stateless function of x it is also the
// repository's one 64-bit hash (request IDs, fault-injection coins, retry
// jitter), so every stream built on it stays bit-identical to RNG's.
func SplitMix64(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 uniformly random bits (SplitMix64 step).
func (r *RNG) Uint64() uint64 {
	z := SplitMix64(r.state)
	r.state += Gamma
	return z
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// Norm returns a standard normal deviate via the Box-Muller transform.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Perm returns a uniformly random permutation of 0..n-1 (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Choice returns a random index in [0, len(weights)) with probability
// proportional to weights[i]. It panics on empty or non-positive-sum
// weights; individual zero weights are allowed.
func (r *RNG) Choice(weights []float64) int {
	if len(weights) == 0 {
		panic("stats: Choice of empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: Choice with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: Choice with zero total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
