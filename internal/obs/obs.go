// Package obs is the telemetry layer of the pipeline: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms), lightweight
// hierarchical spans for stage tracing, and runtime capture hooks — all
// standard library, no dependencies.
//
// # Design
//
// Everything is nil-safe, mirroring the resilience package's convention for
// Injector and Health: a nil *Registry hands out nil metric handles, and
// every method on a nil handle is a no-op. Instrumented code therefore
// records unconditionally, and telemetry costs one nil check per operation
// when disabled. Handles are resolved once (at engine build, at fit start)
// and the hot paths touch only atomics, keeping the enabled overhead within
// the ≤2% budget on Engine.Evaluate that DESIGN.md pins.
//
// # Naming scheme
//
// Metric names are dotted lowercase paths, layer first:
//
//	<layer>.<subject>.<unit-suffixed leaf>
//	core.sweep.pairs_total        counter
//	core.sweep.workers            gauge
//	core.engine.build_seconds     histogram
//	hazard.fit.bandwidth_miles.<source>   gauge, one per catalog
//	pipeline.<stage>.<severity>_total     counters bridged from PipelineHealth
//
// Counters end in _total, durations in _seconds, sizes in _bytes. A
// Snapshot is exportable as sorted text (one metric per line) or JSON; both
// renderings are deterministic — every key path is sorted — so identical
// registries serialize byte-identically.
//
// # Histogram buckets
//
// Histograms use fixed upper bounds fixed at construction. For k bounds
// there are k+1 buckets: bucket i counts observations v with
// bounds[i-1] < v <= bounds[i], and the final bucket is the implicit
// overflow bucket counting every observation above the last bound. In a
// HistogramSnapshot, len(Counts) == len(Bounds)+1 and Counts[len(Bounds)]
// is that overflow count; Sum always includes overflowed values, so a mean
// computed from Sum/Count is exact even when observations overflow.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a nil Counter ignores all operations.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increases the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. The zero value is
// ready to use; a nil Gauge ignores all operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta (no-op on nil).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric. Bucket bounds are upper
// bounds in ascending order; observations above the last bound land in an
// implicit overflow bucket. A nil Histogram ignores all operations.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the mean observation, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// LatencyBuckets returns the default duration bounds in seconds: log-spaced
// from 100µs to one minute, sized for the pipeline's stage costs (parses in
// milliseconds, CV fits and all-pairs sweeps in seconds).
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

// Registry is a concurrency-safe collection of named metrics. A nil
// *Registry hands out nil handles, so instrumentation threads it
// unconditionally and disabled telemetry costs nothing but nil checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (nil on a nil registry). The first registration's
// bounds win; later calls with different bounds return the existing
// histogram unchanged.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
}

// HistogramSnapshot is one histogram's state at snapshot time. Counts has
// len(Bounds)+1 entries; the last is the overflow bucket above the final
// bound (kept separate so the JSON stays free of non-encodable +Inf).
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot is a point-in-time copy of a registry's metrics.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current state of every metric. Nil registries yield
// an empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteText renders the snapshot one metric per line, sorted by name within
// each kind, for terminal output.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter  %-44s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge    %-44s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		if _, err := fmt.Fprintf(w, "hist     %-44s count=%d sum=%.6g mean=%.6g\n",
			name, h.Count, h.Sum, mean); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Report bundles a trace tree with a metrics snapshot — the shape the
// `riskroute stats` subcommand and the -telemetry flag emit.
type Report struct {
	Trace   *SpanSnapshot `json:"trace,omitempty"`
	Metrics Snapshot      `json:"metrics"`
}

// BuildReport snapshots the registry and the trace (either may be nil).
func BuildReport(r *Registry, trace *Span) Report {
	rep := Report{Metrics: r.Snapshot()}
	if trace != nil {
		ss := trace.Snapshot()
		rep.Trace = &ss
	}
	return rep
}

// WriteJSON renders the report as indented JSON.
func (rep Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteText renders the report for terminals: the span tree indented by
// depth, then the metrics.
func (rep Report) WriteText(w io.Writer) error {
	if rep.Trace != nil {
		if err := rep.Trace.writeText(w, 0); err != nil {
			return err
		}
	}
	return rep.Metrics.WriteText(w)
}
