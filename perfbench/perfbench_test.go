package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"riskroute/internal/datasets"
	"riskroute/internal/serve"
)

// bruteQuantile is the nearest-rank quantile by its definition: the
// smallest sample with at least ceil(p·n) samples at or below it.
func bruteQuantile(xs []time.Duration, p float64) time.Duration {
	need := int(math.Ceil(p * float64(len(xs))))
	best := time.Duration(math.MaxInt64)
	for _, x := range xs {
		atOrBelow := 0
		for _, y := range xs {
			if y <= x {
				atOrBelow++
			}
		}
		if atOrBelow >= need && x < best {
			best = x
		}
	}
	return best
}

func TestPercentileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 9, 10, 19, 20, 21, 99, 100, 101, 250, 1000, 1013} {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(rng.Intn(50)) // ties on purpose
		}
		before := append([]time.Duration(nil), xs...)
		for _, p := range []float64{0.5, 0.9, 0.99} {
			got, ok := percentile(xs, p)
			rank := int(math.Ceil(p * float64(n)))
			wantOK := n > 0 && n-rank >= minBeyond
			if ok != wantOK {
				t.Fatalf("n=%d p=%g: ok=%v, want %v", n, p, ok, wantOK)
			}
			if ok && got != bruteQuantile(xs, p) {
				t.Fatalf("n=%d p=%g: got %v, brute force %v", n, p, got, bruteQuantile(xs, p))
			}
		}
		for i := range xs {
			if xs[i] != before[i] {
				t.Fatalf("percentile reordered its input")
			}
		}
	}
}

// renderOps is the op list as the server sees it, one request per line.
func renderOps(ops []op) string {
	var b strings.Builder
	for _, o := range ops {
		b.WriteString(o.target())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestOpListDeterministic(t *testing.T) {
	nets := datasets.BuildNetworks()
	nb := len(bulletins())
	for _, wl := range []string{"route-cold", "route-swap"} {
		a, err := genOps(wl, 42, 20000, nets, nb)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genOps(wl, 42, 20000, datasets.BuildNetworks(), nb)
		if err != nil {
			t.Fatal(err)
		}
		if renderOps(a) != renderOps(b) {
			t.Fatalf("%s: one seed gave two op lists", wl)
		}
		c, err := genOps(wl, 43, 20000, nets, nb)
		if err != nil {
			t.Fatal(err)
		}
		if renderOps(a) == renderOps(c) {
			t.Fatalf("%s: seeds 42 and 43 gave the same op list", wl)
		}
	}
}

func TestRouteColdNeverRepeatsARead(t *testing.T) {
	ops, err := genOps("route-cold", 3, 60000, datasets.BuildNetworks(), len(bulletins()))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	custom, reads := 0, 0
	for _, o := range ops {
		if o.kind != opRoute {
			continue
		}
		reads++
		key := o.network + "|" + o.from + "|" + o.to
		if seen[key] {
			t.Fatalf("pair %s read twice", key)
		}
		seen[key] = true
		if o.lambdaH != 0 {
			custom++
		}
	}
	if want := (reads + customLambdaEvery - 1) / customLambdaEvery; custom != want {
		t.Fatalf("%d of %d reads carry a custom lambda_h, want %d", custom, reads, want)
	}
}

func TestSwapSchedule(t *testing.T) {
	nb := len(bulletins())
	for _, tc := range []struct {
		workload string
		every    int
	}{{"route-cold", coldSwapEvery}, {"route-swap", swapEvery}} {
		for _, n := range []int{tc.every - 1, tc.every, 10*tc.every + 3} {
			ops, err := genOps(tc.workload, 5, n, datasets.BuildNetworks(), nb)
			if err != nil {
				t.Fatal(err)
			}
			if len(ops) != n {
				t.Fatalf("%s: %d ops, want %d", tc.workload, len(ops), n)
			}
			swaps, last := 0, -1
			for i, o := range ops {
				isSwap := (i+1)%tc.every == 0
				if (o.kind == opAdvisory) != isSwap {
					t.Fatalf("%s: op %d advisory=%v, want %v", tc.workload, i, o.kind == opAdvisory, isSwap)
				}
				if isSwap {
					if last >= 0 && o.bulletin != (last+1)%nb {
						t.Fatalf("%s: swap %d posts bulletin %d after %d", tc.workload, swaps, o.bulletin, last)
					}
					last = o.bulletin
					swaps++
				}
			}
			if swaps != n/tc.every {
				t.Fatalf("%s: %d swaps in %d ops, want %d", tc.workload, swaps, n, n/tc.every)
			}
		}
	}
}

func TestSelfTimesNeverExceedTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var build func(depth int) *rung
	build = func(depth int) *rung {
		r := &rung{name: "r", incl: rng.Float64()*100 - 5} // noise can read negative
		if depth < 3 {
			for k := rng.Intn(3); k > 0; k-- {
				r.children = append(r.children, build(depth+1))
			}
		}
		return r
	}
	for trial := 0; trial < 2000; trial++ {
		root := build(0)
		var sum float64
		for _, st := range selfTimes(root) {
			if st.self < 0 {
				t.Fatalf("trial %d: negative self-time %v", trial, st.self)
			}
			if st.self > math.Max(root.incl, 0)+1e-9 {
				t.Fatalf("trial %d: self-time %v exceeds the end-to-end %v", trial, st.self, root.incl)
			}
			sum += st.self
		}
		if want := math.Max(root.incl, 0); math.Abs(sum-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("trial %d: self-times sum to %v, end-to-end is %v", trial, sum, want)
		}
	}
}

// TestCacheStatsRepeat runs both workloads twice on a reduced world and
// checks that each run answers correctly and counts the same cache hits
// and misses, and that route-cold never hits.
func TestCacheStatsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("bakes a world")
	}
	nets := datasets.BuildNetworks()[:1+hotOther] // Level3 and hotOther others
	base := serve.Config{Networks: nets, Blocks: 4000, EventScale: 0.03, Seed: 1}
	world, err := serve.BakeWorld(base)
	if err != nil {
		t.Fatal(err)
	}
	corpus := bulletins()
	for _, wl := range []string{"route-cold", "route-swap"} {
		ops, err := genOps(wl, 9, 3*swapEvery+17, nets, len(corpus))
		if err != nil {
			t.Fatal(err)
		}
		var counts [][2]uint64
		for run := 0; run < 2; run++ {
			cfg := daemonConfig("")
			cfg.Networks, cfg.Blocks, cfg.EventScale, cfg.World = nets, base.Blocks, base.EventScale, world
			srv, err := serve.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lg, err := drive(srv.Handler(), ops, corpus)
			if err != nil {
				t.Fatal(err)
			}
			if bad := newChecker(nets, world, corpus).verify(ops, lg); len(bad) > 0 {
				keys := make([]int, 0, len(bad))
				for i := range bad {
					keys = append(keys, i)
				}
				sort.Ints(keys)
				t.Fatalf("%s: %d failed ops, first op %d: %s", wl, len(bad), keys[0], bad[keys[0]])
			}
			hits, misses := srv.CacheStats()
			counts = append(counts, [2]uint64{hits, misses})
		}
		if counts[0] != counts[1] {
			t.Fatalf("%s: cache hits/misses %v then %v", wl, counts[0], counts[1])
		}
		if wl == "route-cold" && counts[0][0] != 0 {
			t.Fatalf("route-cold: %d cache hits, want 0", counts[0][0])
		}
		if wl == "route-swap" && counts[0][0] == 0 {
			t.Fatalf("route-swap: no cache hits")
		}
	}
}

func TestCalibrationTaskAllocatesNothing(t *testing.T) {
	g := newRefGraph()
	if n := testing.AllocsPerRun(20, func() { g.run() }); n != 0 {
		t.Fatalf("calibration task allocates %v times per run", n)
	}
}
