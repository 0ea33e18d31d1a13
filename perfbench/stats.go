package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read off fewer samples moves with one outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples: the
// smallest sample with at least ceil(p·n) samples at or below it. ok is false
// when fewer than minBeyond samples lie beyond that rank. samples is not
// modified.
func percentile(samples []time.Duration, p float64) (v time.Duration, ok bool) {
	n := len(samples)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank-1], true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDur is median over durations, in the unit given.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// meanDur is the arithmetic mean of ds, in the unit given.
func meanDur(ds []time.Duration, unit time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, d := range ds {
		sum += float64(d)
	}
	return sum / float64(len(ds)) / float64(unit)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ steal, total uint64 }

// readCPUTimes reads the host's aggregate CPU counters. ok is false where
// /proc/stat is unavailable.
func readCPUTimes() (cpuTimes, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice]; the
	// guest columns are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealPct is the share of host CPU time stolen by the hypervisor between
// two readings, in percent (0 when the counters did not advance).
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
