// Command perfbench is RiskRoute's end-to-end and per-layer benchmark. It
// drives riskrouted's real handler chain in process over a seeded op list
// and prints one JSON result line; see README.md for the workloads and the
// metrics.
//
//	bash perfbench/run.sh --workload route-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"riskroute/internal/datasets"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "route-cold or route-swap")
	seed := fs.Int64("seed", 1, "op-list seed")
	seconds := fs.Int("seconds", 10, "run length; fixes the op count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	n, err := opsFor(*workload, *seconds)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	nets := datasets.BuildNetworks()
	corpus := bulletins()
	ops, err := genOps(*workload, *seed, n, nets, len(corpus))
	if err != nil {
		return err
	}
	var res *result
	switch *trace {
	case 0:
		res, err = endToEnd(*workload, dir, ops, corpus)
	case 1:
		res, err = traced(*workload, dir, ops, corpus)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd is the untraced measurement: set up the world, drive the op
// list through the daemon's handler, check the answers.
func endToEnd(workload, dir string, ops []op, corpus []string) (*result, error) {
	srv, world, times, setupSlow, err := setup(dir)
	if err != nil {
		return nil, err
	}
	totals := make([]float64, len(times)) // at nominal host speed
	raw := make([]float64, len(times))
	for i, t := range times {
		raw[i] = t.Seconds()
		totals[i] = raw[i] / setupSlow[i]
	}

	runtime.GC() // every run starts timing from the same collected heap
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, cpuOK := readCPUTimes()
	lg, err := drive(srv.Handler(), ops, corpus)
	if err != nil {
		return nil, err
	}
	cpu1, _ := readCPUTimes()
	runtime.ReadMemStats(&ms1)

	bad := newChecker(datasets.BuildNetworks(), world, corpus).verify(ops, lg)
	reportFailures(bad, ops)
	hits, misses := srv.CacheStats()

	sum, err := summarize(ops, lg, bad)
	if err != nil {
		return nil, err
	}
	steal := "n/a"
	if cpuOK {
		steal = fmt.Sprintf("%.2f", stealPct(cpu0, cpu1))
	}
	reads, swaps := byKind(ops, lg.opTime)
	readCPU, swapCPU := byKind(ops, lg.opCPU)
	fmt.Printf("perfbench: %s reads=%d swaps=%d cache_hits=%d cache_misses=%d wall_s=%.3f\n",
		workload, len(reads), len(swaps), hits, misses, lg.wall.Seconds())
	rawMS := func(samples []time.Duration, p float64) float64 {
		v, _ := percentile(samples, p)
		return float64(v) / float64(time.Millisecond)
	}
	fmt.Printf("perfbench: unscaled read_p50/p99_ms wall=%.4f/%.4f cpu=%.4f/%.4f swap_p50/p90_ms wall=%.4f/%.4f cpu=%.4f/%.4f ops_per_s=%.1f setup_s=%.4f\n",
		rawMS(reads, 0.5), rawMS(reads, 0.99), rawMS(readCPU, 0.5), rawMS(readCPU, 0.99),
		rawMS(swaps, 0.5), rawMS(swaps, 0.9), rawMS(swapCPU, 0.5), rawMS(swapCPU, 0.9),
		float64(len(ops)-len(bad))/lg.wall.Seconds(), raw)
	fmt.Printf("perfbench: diagnostics steal_pct=%s gc_cycles=%d gomaxprocs=%d setup_slowdown=%.3f cpu_slowdown=%.3f wall_slowdown=%.3f\n",
		steal, ms1.NumGC-ms0.NumGC, runtime.GOMAXPROCS(0), setupSlow, sum.cpuSlowdowns, sum.wallSlowdowns)

	return &result{
		Correct:   len(bad) == 0,
		Attempted: len(ops),
		Failed:    len(bad),
		Metrics: map[string]metric{
			"setup_s":         {median(totals), "s"},
			"latency_p50_ms":  {sum.readP50, "ms"},
			"latency_p99_ms":  {sum.readP99, "ms"},
			"throughput_ops":  {sum.throughput, "1/s"},
			"swap_cpu_p50_ms": {sum.swapP50, "ms"},
			"swap_cpu_p90_ms": {sum.swapP90, "ms"},
			"peak_rss_mb":     {peakRSSMB(), "MiB"},
		},
	}, nil
}

// slices is how many consecutive, equal op-count parts a run is cut into
// for calibration: each op's CPU time, and each part's wall time, is scaled
// by the part's host slowdown.
const slices = 20

// summary is a run's end-to-end figures at the calibration task's nominal
// host speed: exact read and swap percentiles in ms over every scaled
// on-CPU sample, and completed ops per scaled second of wall time; with the
// parts' slowdowns in CPU time and in wall time.
type summary struct {
	readP50, readP99, swapP50, swapP90, throughput float64
	cpuSlowdowns, wallSlowdowns                    []float64
}

// summarize scales every op's on-CPU time by its part's CPU-time slowdown
// and takes exact percentiles over the scaled samples. Throughput counts
// failed ops as attempted but not completed, over the parts' wall time net
// of calibration tasks, each scaled by its wall-time slowdown.
func summarize(ops []op, lg *runLog, bad map[int]string) (summary, error) {
	var sum summary
	var reads, swaps []time.Duration
	var busy float64 // scaled seconds
	n := len(ops)
	for p := 0; p < slices; p++ {
		lo, hi := p*n/slices, (p+1)*n/slices
		if lo == hi {
			return summary{}, fmt.Errorf("%d ops are too few to cut into %d parts; raise --seconds", n, slices)
		}
		var walls, cpus []time.Duration
		var calib time.Duration // calibration time inside the part's wall time
		for k, at := range lg.refAt {
			if at >= lo && at < hi {
				walls = append(walls, lg.refWall[k])
				cpus = append(cpus, lg.refCPU[k])
				calib += lg.refWall[k]
			}
		}
		if len(walls) == 0 {
			return summary{}, fmt.Errorf("ops %d..%d ran no calibration task; raise --seconds", lo, hi-1)
		}
		cpuSD, wallSD := slowdown(cpus), slowdown(walls)
		sum.cpuSlowdowns = append(sum.cpuSlowdowns, cpuSD)
		sum.wallSlowdowns = append(sum.wallSlowdowns, wallSD)
		for i := lo; i < hi; i++ {
			d := time.Duration(float64(lg.opCPU[i]) / cpuSD)
			if ops[i].kind == opAdvisory {
				swaps = append(swaps, d)
			} else {
				reads = append(reads, d)
			}
		}
		var start time.Duration
		if lo > 0 {
			start = lg.done[lo-1]
		}
		busy += (lg.done[hi-1] - start - calib).Seconds() / wallSD
	}
	sum.throughput = float64(n-len(bad)) / busy
	for _, q := range []struct {
		samples []time.Duration
		p       float64
		dst     *float64
	}{{reads, 0.50, &sum.readP50}, {reads, 0.99, &sum.readP99}, {swaps, 0.50, &sum.swapP50}, {swaps, 0.90, &sum.swapP90}} {
		v, ok := percentile(q.samples, q.p)
		if !ok {
			return summary{}, fmt.Errorf("%d reads and %d swaps are too few for a p%g; raise --seconds",
				len(reads), len(swaps), 100*q.p)
		}
		*q.dst = float64(v) / float64(time.Millisecond)
	}
	return sum, nil
}

// reportFailures prints the first few failed ops to standard error.
func reportFailures(bad map[int]string, ops []op) {
	idx := make([]int, 0, len(bad))
	for i := range bad {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for k, i := range idx {
		if k == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d failed ops in all\n", len(idx))
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %s\n", i, bad[i])
	}
}
