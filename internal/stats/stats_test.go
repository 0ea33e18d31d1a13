package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	tests := []struct {
		name     string
		xs       []float64
		mean     float64
		variance float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{5}, 5, 0},
		{"pair", []float64{2, 4}, 3, 1},
		{"constant", []float64{7, 7, 7, 7}, 7, 0},
		{"spread", []float64{1, 2, 3, 4, 5}, 3, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); math.Abs(got-tt.mean) > 1e-12 {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
			if got := Variance(tt.xs); math.Abs(got-tt.variance) > 1e-12 {
				t.Errorf("Variance = %v, want %v", got, tt.variance)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%.2f) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestLinregressPerfectLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 1 + 2x
	fit := Linregress(x, y)
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinregressNoCorrelation(t *testing.T) {
	// Symmetric y pattern around the x midpoint has zero linear correlation.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 2, 1, 2, 1}
	fit := Linregress(x, y)
	if fit.R2 > 0.05 {
		t.Errorf("R2 = %v, want near 0", fit.R2)
	}
}

func TestLinregressDegenerateX(t *testing.T) {
	fit := Linregress([]float64{3, 3, 3}, []float64{1, 2, 9})
	if fit.Slope != 0 || fit.R2 != 0 {
		t.Errorf("degenerate x should give flat fit, got %+v", fit)
	}
}

func TestLinregressR2Range(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 3 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Range(-10, 10)
			y[i] = rng.Range(-10, 10)
		}
		fit := Linregress(x, y)
		return fit.R2 >= 0 && fit.R2 <= 1+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("R2 range property failed: %v", err)
	}
}

func TestKLDivergence(t *testing.T) {
	uniform := []float64{1, 1, 1, 1}
	if got := KLDivergence(uniform, uniform); got != 0 {
		t.Errorf("D(p‖p) = %v, want 0", got)
	}
	p := []float64{0.5, 0.5, 0, 0}
	q := []float64{0.25, 0.25, 0.25, 0.25}
	want := math.Log(2) // each nonzero bin contributes 0.5*ln(0.5/0.25)
	if got := KLDivergence(p, q); math.Abs(got-want) > 1e-12 {
		t.Errorf("D(p‖q) = %v, want %v", got, want)
	}
	// Unnormalized inputs behave as their normalized counterparts.
	if got := KLDivergence([]float64{5, 5, 0, 0}, []float64{2, 2, 2, 2}); math.Abs(got-want) > 1e-12 {
		t.Errorf("unnormalized D = %v, want %v", got, want)
	}
}

func TestKLDivergenceNonNegative(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(20)
		p := make([]float64, n)
		q := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
			q[i] = rng.Float64()
		}
		p[0] += 0.01 // guarantee nonzero sums
		q[0] += 0.01
		return KLDivergence(p, q) >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("KL non-negativity failed: %v", err)
	}
}

func TestKFold(t *testing.T) {
	rng := NewRNG(42)
	n, k := 103, 5
	folds := KFold(n, k, rng)
	if len(folds) != k {
		t.Fatalf("got %d folds, want %d", len(folds), k)
	}
	seen := make(map[int]int)
	for _, fold := range folds {
		if len(fold) < n/k || len(fold) > n/k+1 {
			t.Errorf("fold size %d outside [%d, %d]", len(fold), n/k, n/k+1)
		}
		for _, i := range fold {
			seen[i]++
		}
	}
	if len(seen) != n {
		t.Errorf("folds cover %d indices, want %d", len(seen), n)
	}
	for i, count := range seen {
		if count != 1 {
			t.Errorf("index %d appears %d times", i, count)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give same stream")
		}
	}
	c := NewRNG(100)
	diff := false
	a2 := NewRNG(99)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should give different streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(1)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGNorm(t *testing.T) {
	rng := NewRNG(2)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Norm()
	}
	if m := Mean(xs); math.Abs(m) > 0.03 {
		t.Errorf("Norm mean = %v, want ~0", m)
	}
	if sd := StdDev(xs); math.Abs(sd-1) > 0.03 {
		t.Errorf("Norm stddev = %v, want ~1", sd)
	}
}

func TestRNGPerm(t *testing.T) {
	rng := NewRNG(3)
	p := rng.Perm(50)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGChoice(t *testing.T) {
	rng := NewRNG(4)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[rng.Choice(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestPanics(t *testing.T) {
	rng := NewRNG(5)
	for name, fn := range map[string]func(){
		"Quantile empty":    func() { Quantile(nil, 0.5) },
		"Quantile range":    func() { Quantile([]float64{1}, 2) },
		"Linregress len":    func() { Linregress([]float64{1}, []float64{1, 2}) },
		"Linregress short":  func() { Linregress([]float64{1}, []float64{1}) },
		"KL len":            func() { KLDivergence([]float64{1}, []float64{1, 2}) },
		"KL empty":          func() { KLDivergence(nil, nil) },
		"KL zero":           func() { KLDivergence([]float64{0}, []float64{1}) },
		"KFold k too small": func() { KFold(10, 1, rng) },
		"KFold k > n":       func() { KFold(3, 5, rng) },
		"Intn zero":         func() { rng.Intn(0) },
		"Choice empty":      func() { rng.Choice(nil) },
		"Choice zero-sum":   func() { rng.Choice([]float64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkRNGNorm(b *testing.B) {
	rng := NewRNG(6)
	for i := 0; i < b.N; i++ {
		rng.Norm()
	}
}

// TestSplitMix64Pinned pins the mixer's outputs to values captured before
// the four SplitMix64 copies became one: the RNG stream and the stateless
// hash must stay bit-identical, or every synthetic world shifts.
func TestSplitMix64Pinned(t *testing.T) {
	r := NewRNG(1)
	for i, want := range []uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e, 0x71c18690ee42c90b} {
		if got := r.Uint64(); got != want {
			t.Fatalf("NewRNG(1) output %d = %#x, want %#x", i, got, want)
		}
	}
	if got := SplitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("SplitMix64(0) = %#x", got)
	}
}
