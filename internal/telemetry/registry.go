// Package telemetry is the unified observability layer of enrichdb: a
// race-safe metrics registry (counters, gauges, fixed-bucket histograms)
// behind one Snapshot() API, and a lightweight structured tracer emitting
// JSONL spans for the progressive pipeline.
//
// The package is designed around two wiring rules:
//
//   - every enrich.Manager owns a Registry, so the components composed around
//     a database (the tight runtime, the loose enrichers, the IVM views, the
//     progressive executor) publish into one place and one Snapshot carries
//     the whole system's counters;
//   - everything is nil-tolerant: a nil *Registry hands out nil instruments,
//     and every instrument method no-ops on a nil receiver, so code can
//     instrument unconditionally and disabled telemetry costs nothing (no
//     branches beyond the nil check, no allocations — see the fast-path
//     benchmarks).
//
// Metric names are dotted `<component>.<metric>` with unit suffixes for
// non-count values: `_ns` for cumulative nanoseconds, `_bytes` for sizes,
// `_ms` for histogram bucket units (see DESIGN.md §8 for the full scheme).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing (resettable) atomic counter. The nil
// counter is valid and discards writes.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// AddDuration increments a `_ns` counter by the duration in nanoseconds.
func (c *Counter) AddDuration(d time.Duration) { c.Add(int64(d)) }

// Store sets the counter (benchmark-harness reset hygiene).
func (c *Counter) Store(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Duration reads a `_ns` counter as a time.Duration.
func (c *Counter) Duration() time.Duration { return time.Duration(c.Value()) }

// Gauge is an instantaneous atomic value. The nil gauge is valid and
// discards writes.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (e.g. active-connection tracking).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic bucket counts: bucket i
// counts observations <= Bounds[i], with one implicit overflow bucket.
// Observations are float64 in the unit the metric name declares (the built-in
// bucket sets use milliseconds). The nil histogram is valid and discards
// observations.
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// LatencyBucketsMs is the default bucket set for enrichment-function latency
// and epoch wall-clock histograms, in milliseconds. It spans microsecond-fast
// synthetic classifiers up to the multi-second heavyweight models the paper
// measures (100ms+/object).
var LatencyBucketsMs = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000}

func newHistogram(name string, bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{name: name, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Registry is a race-safe collection of named instruments. Instruments are
// created on first use and live for the registry's lifetime; the hot path
// (Add/Observe on an instrument held by the caller) is a single atomic op.
// The nil registry is valid: it hands out nil instruments, whose methods
// no-op, making disabled telemetry free.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	gaugeFuncs map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		gaugeFuncs: make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (discarding) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Add adds delta to the named counter (creating it on first use); a no-op on
// a nil registry. The method value is a convenient publishing hook for
// packages that should not depend on telemetry directly (engine.Stats).
func (r *Registry) Add(name string, delta int64) {
	r.Counter(name).Add(delta)
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (discarding) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at Snapshot time. fn
// must be safe for concurrent calls. A nil registry no-ops.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given bounds on first use (later calls reuse the first bounds). A nil
// registry returns a nil (discarding) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = newHistogram(name, bounds)
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is a histogram's state at Snapshot time.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra overflow
	// entry.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the mean observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile approximates the q-quantile (0..1) from the bucket counts, using
// each bucket's upper bound (the overflow bucket reports the largest bound).
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Bounds[len(h.Bounds)-1]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state. A nil registry returns an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		funcs[k] = v
	}
	r.mu.RUnlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[k] = hs
	}
	return s
}

// Merge adds another snapshot into this one: counters, gauges and histogram
// buckets (with identical bounds) sum. Used by the bench harness to
// aggregate the registries of the fresh envs one experiment builds.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]int64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	for k, v := range o.Gauges {
		s.Gauges[k] += v
	}
	for k, oh := range o.Histograms {
		h, ok := s.Histograms[k]
		if !ok || len(h.Bounds) != len(oh.Bounds) {
			cp := HistogramSnapshot{
				Bounds: append([]float64(nil), oh.Bounds...),
				Counts: append([]int64(nil), oh.Counts...),
				Count:  oh.Count, Sum: oh.Sum,
			}
			s.Histograms[k] = cp
			continue
		}
		for i := range h.Counts {
			h.Counts[i] += oh.Counts[i]
		}
		h.Count += oh.Count
		h.Sum += oh.Sum
		s.Histograms[k] = h
	}
}

// formatValue renders a metric value per the naming scheme's unit suffixes.
func formatValue(name string, v int64) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return fmt.Sprintf("%d (%v)", v, time.Duration(v).Round(time.Microsecond))
	case strings.HasSuffix(name, "_bytes"):
		return fmt.Sprintf("%d B", v)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// String renders the snapshot as an aligned, name-sorted table — the uniform
// counter block the CLI's .metrics command and the bench runner print.
func (s Snapshot) String() string {
	type row struct{ kind, name, value string }
	var rows []row
	for name, v := range s.Counters {
		rows = append(rows, row{"counter", name, formatValue(name, v)})
	}
	for name, v := range s.Gauges {
		rows = append(rows, row{"gauge", name, formatValue(name, v)})
	}
	for name, h := range s.Histograms {
		rows = append(rows, row{"hist", name, fmt.Sprintf(
			"count=%d mean=%.3g p50=%.3g p99=%.3g max<=%.3g",
			h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Quantile(1))})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	nameW := 0
	for _, r := range rows {
		if len(r.name) > nameW {
			nameW = len(r.name)
		}
	}
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-7s  %-*s  %s\n", r.kind, nameW, r.name, r.value)
	}
	return sb.String()
}
