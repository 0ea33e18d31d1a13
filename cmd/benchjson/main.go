// benchjson converts `go test -bench` text output into a machine-readable
// JSON summary, aggregating repeated -count runs per benchmark (min and mean
// ns/op; the minimum is the noise-floor estimator used for comparisons).
// Repeatable -gate arguments compute off/on ratios between benchmark pairs
// and, when given a bound, enforce it:
//
//	go test -bench=. -benchmem -count=3 ./... | \
//	    go run ./cmd/benchjson -o BENCH.json \
//	        -gate 'tracing=RouteWithTracingOff/RouteWithTracingOn/RouteTracingPaired' \
//	        -gate 'explain=RouteExplainOff/RouteExplainOn/RouteExplainPaired@1'
//
// Input may also be given as file arguments. Lines that are not benchmark
// results (package headers, PASS/ok, cpu info) are ignored.
//
// With -compare it becomes a regression gate over two of its own JSON
// summaries: it diffs the min ns/op of every benchmark present in both,
// prints a per-benchmark delta table, and exits nonzero when any benchmark
// slowed down by at least -threshold percent:
//
//	go run ./cmd/benchjson -compare -threshold 10 BENCH_PR2.json BENCH_PR3.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	Iterations  int64   `json:"iterations"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMean float64 `json:"ns_per_op_mean"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// OverheadPct carries a benchmark's self-reported "overhead-pct"
	// custom metric (b.ReportMetric), averaged over repeated runs.
	// Paired-interleave benchmarks use it to publish an off/on ratio
	// measured inside one timer window.
	OverheadPct float64 `json:"overhead_pct,omitempty"`
}

// gate is one named off/on budget evaluated while summarizing:
// -gate NAME=OFF/ON[/PAIRED][@MAX] computes the overhead ratio between the
// OFF and ON benchmarks and, when @MAX is given, fails the run if the ratio
// exceeds MAX percent; without a bound the ratio is recorded, not enforced.
// When the off/on delta is too small for separately invoked minima to
// resolve (sub-microsecond costs on a shared box), PAIRED names a benchmark
// that interleaves both variants inside one timer window and publishes the
// ratio itself via b.ReportMetric(..., "overhead-pct"); that figure then
// overrides the min quotient, with the off/on minima kept for reference.
// The @xMIN variant inverts the budget into a speedup floor: the gate
// computes OFF÷ON as a speedup factor and fails when it drops below MIN
// (e.g. coldstart=ColdStartFit/ColdStartSnapshot@x20 demands the snapshot
// boot be at least 20x faster than the fit boot).
type gate struct {
	Name        string  `json:"name"`
	Off         string  `json:"off"`
	On          string  `json:"on"`
	OffNsMin    float64 `json:"off_ns_per_op_min"`
	OnNsMin     float64 `json:"on_ns_per_op_min"`
	OverheadPct float64 `json:"overhead_pct,omitempty"`
	PairedBench string  `json:"paired_bench,omitempty"`
	MaxPct      float64 `json:"max_pct,omitempty"`
	SpeedupX    float64 `json:"speedup_x,omitempty"`
	MinSpeedup  float64 `json:"min_speedup,omitempty"`
	Enforced    bool    `json:"enforced"`
	Pass        bool    `json:"pass"`
}

// gateSpec is one parsed -gate argument.
type gateSpec struct {
	name, off, on, paired string
	maxPct                float64
	minSpeedup            float64
	speedup               bool
	enforced              bool
}

// gateFlags collects repeated -gate arguments.
type gateFlags []gateSpec

func (g *gateFlags) String() string { return fmt.Sprintf("%d gates", len(*g)) }

func (g *gateFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("gate %q: want NAME=OFF/ON[/PAIRED][@MAX]", v)
	}
	spec := gateSpec{name: name}
	benches, max, hasMax := strings.Cut(rest, "@")
	if hasMax {
		if factor, isSpeedup := strings.CutPrefix(max, "x"); isSpeedup {
			min, err := strconv.ParseFloat(factor, 64)
			if err != nil || min <= 0 {
				return fmt.Errorf("gate %q: bad min speedup %q", v, max)
			}
			spec.minSpeedup, spec.speedup, spec.enforced = min, true, true
		} else {
			pct, err := strconv.ParseFloat(max, 64)
			if err != nil {
				return fmt.Errorf("gate %q: bad max percent %q", v, max)
			}
			spec.maxPct, spec.enforced = pct, true
		}
	}
	parts := strings.Split(benches, "/")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("gate %q: want NAME=OFF/ON[/PAIRED][@MAX]", v)
	}
	spec.off, spec.on = parts[0], parts[1]
	if len(parts) == 3 {
		spec.paired = parts[2]
	}
	*g = append(*g, spec)
	return nil
}

type summary struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []result `json:"benchmarks"`
	Gates      []gate   `json:"gates,omitempty"`
}

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	compare := flag.Bool("compare", false, "compare two JSON summaries: benchjson -compare OLD NEW")
	threshold := flag.Float64("threshold", 10, "regression threshold in percent for -compare")
	var gates gateFlags
	flag.Var(&gates, "gate", "budget NAME=OFF/ON[/PAIRED][@MAX|@xMIN], repeatable; @MAX caps overhead percent, @xMIN demands an OFF/ON speedup factor; exits nonzero on breach")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants exactly two file arguments (OLD NEW), got %d", flag.NArg()))
		}
		old, err := loadSummary(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		new_, err := loadSummary(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		regressed := compareSummaries(os.Stdout, old, new_, *threshold)
		if regressed {
			os.Exit(1)
		}
		return
	}

	agg := map[string]*result{}
	var order []string
	scan := func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if res, ok := parseLine(sc.Text()); ok {
				cur, seen := agg[res.Name]
				if !seen {
					agg[res.Name] = &res
					order = append(order, res.Name)
					continue
				}
				cur.Runs++
				cur.Iterations += res.Iterations
				cur.NsPerOpMean += res.NsPerOpMean
				cur.OverheadPct += res.OverheadPct
				if res.NsPerOpMin < cur.NsPerOpMin {
					cur.NsPerOpMin = res.NsPerOpMin
				}
				if res.BytesPerOp > cur.BytesPerOp {
					cur.BytesPerOp = res.BytesPerOp
				}
				if res.AllocsPerOp > cur.AllocsPerOp {
					cur.AllocsPerOp = res.AllocsPerOp
				}
			}
		}
		return sc.Err()
	}

	if flag.NArg() == 0 {
		if err := scan(os.Stdin); err != nil {
			fatal(err)
		}
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		err = scan(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if len(agg) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}

	s := summary{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	sort.Strings(order)
	for _, name := range order {
		r := *agg[name]
		r.NsPerOpMean /= float64(r.Runs)
		r.OverheadPct /= float64(r.Runs)
		s.Benchmarks = append(s.Benchmarks, r)
	}
	gateFailed := false
	for _, spec := range gates {
		g, err := evalGate(s.Benchmarks, spec)
		if err != nil {
			fatal(err)
		}
		s.Gates = append(s.Gates, g)
		if !g.Pass {
			gateFailed = true
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		fatal(err)
	}
	if gateFailed {
		for _, g := range s.Gates {
			if g.Pass {
				continue
			}
			if g.MinSpeedup > 0 {
				fmt.Fprintf(os.Stderr, "benchjson: gate %s FAILED: speedup %.1fx below min %.1fx (%s vs %s)\n",
					g.Name, g.SpeedupX, g.MinSpeedup, g.On, g.Off)
			} else {
				fmt.Fprintf(os.Stderr, "benchjson: gate %s FAILED: overhead %.2f%% exceeds max %.2f%% (%s vs %s)\n",
					g.Name, g.OverheadPct, g.MaxPct, g.On, g.Off)
			}
		}
		os.Exit(1)
	}
}

// evalGate resolves one gate spec against the aggregated benchmarks.
func evalGate(benches []result, spec gateSpec) (gate, error) {
	off, on := find(benches, spec.off), find(benches, spec.on)
	if off == nil || on == nil {
		return gate{}, fmt.Errorf("gate %s: pair %q/%q not found in results", spec.name, spec.off, spec.on)
	}
	g := gate{
		Name:     spec.name,
		Off:      off.Name,
		On:       on.Name,
		OffNsMin: off.NsPerOpMin,
		OnNsMin:  on.NsPerOpMin,
		Enforced: spec.enforced,
	}
	if spec.speedup {
		g.SpeedupX = off.NsPerOpMin / on.NsPerOpMin
		g.MinSpeedup = spec.minSpeedup
		g.Pass = g.SpeedupX >= g.MinSpeedup
		return g, nil
	}
	g.OverheadPct = 100 * (on.NsPerOpMin - off.NsPerOpMin) / off.NsPerOpMin
	g.MaxPct = spec.maxPct
	if spec.paired != "" {
		p := find(benches, spec.paired)
		if p == nil {
			return gate{}, fmt.Errorf("gate %s: paired benchmark %q not found in results", spec.name, spec.paired)
		}
		g.PairedBench = p.Name
		g.OverheadPct = p.OverheadPct
	}
	g.Pass = !g.Enforced || g.OverheadPct <= g.MaxPct
	return g, nil
}

// parseLine matches `BenchmarkName-8   100  12345 ns/op [ 67 B/op  8 allocs/op ]`.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	res := result{Name: name, Runs: 1, Iterations: iters}
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOpMin, res.NsPerOpMean, ok = v, v, true
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		case "overhead-pct":
			res.OverheadPct = v
		}
	}
	return res, ok
}

// loadSummary reads one of benchjson's own JSON summaries back.
func loadSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in summary", path)
	}
	return &s, nil
}

// compareSummaries prints the per-benchmark delta table (min ns/op, the
// noise-floor estimator) and reports whether any benchmark present in both
// summaries slowed down by at least threshold percent. Benchmarks only in
// one summary are noted but never fail the gate.
func compareSummaries(w io.Writer, old, new_ *summary, threshold float64) bool {
	oldBy := make(map[string]result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		oldBy[r.Name] = r
	}
	newBy := make(map[string]result, len(new_.Benchmarks))
	for _, r := range new_.Benchmarks {
		newBy[r.Name] = r
	}

	regressed := false
	fmt.Fprintf(w, "%-52s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, nr := range new_.Benchmarks {
		or, ok := oldBy[nr.Name]
		if !ok {
			fmt.Fprintf(w, "%-52s %14s %14.0f %9s\n", nr.Name, "-", nr.NsPerOpMin, "new")
			continue
		}
		delta := 100 * (nr.NsPerOpMin - or.NsPerOpMin) / or.NsPerOpMin
		mark := ""
		if delta >= threshold {
			mark = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %+8.1f%%%s\n",
			nr.Name, or.NsPerOpMin, nr.NsPerOpMin, delta, mark)
	}
	for _, or := range old.Benchmarks {
		if _, ok := newBy[or.Name]; !ok {
			fmt.Fprintf(w, "%-52s %14.0f %14s %9s\n", or.Name, or.NsPerOpMin, "-", "gone")
		}
	}
	if regressed {
		fmt.Fprintf(w, "\nFAIL: at least one benchmark regressed >= %.1f%%\n", threshold)
	} else {
		fmt.Fprintf(w, "\nOK: no benchmark regressed >= %.1f%%\n", threshold)
	}
	return regressed
}

func find(rs []result, substr string) *result {
	for i := range rs {
		if strings.Contains(rs[i].Name, substr) {
			return &rs[i]
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
