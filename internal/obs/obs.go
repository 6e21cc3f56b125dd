// Package obs is the simulator-wide observability layer: a
// concurrent-safe metrics registry (counters, gauges, fixed-bucket
// histograms), a structured event tracer with pluggable sinks, and
// lightweight timing scopes for hot-path profiling.
//
// The package is dependency-free (standard library only) and designed so
// the disabled path costs nothing measurable: every mutation is gated on
// one atomic flag and performs no allocation, so instrumented hot paths
// (line-write pricing, the discrete-event loop) run at seed speed when
// observability is off. Enable it with SetEnabled(true) — cmd/reramsim
// does this when -metrics, -trace-out, -obs-addr or -trace-spans is
// given.
//
// Metric names follow the layer.subsystem.name convention, e.g.
// "core.reset.section.3" or "memsys.read.latency_ns". Histogram names
// carry their unit as a suffix (_ns, _v).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates every metric mutation. Off by default: a plain
// simulation run carries only an atomic-load branch per instrumentation
// point.
var enabled atomic.Bool

// SetEnabled turns metric collection (and timing scopes) on or off.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds one when observability is enabled.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n when observability is enabled.
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic float64 instantaneous value.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v when observability is enabled.
func (g *Gauge) Set(v float64) {
	if enabled.Load() {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetMax raises the gauge to v if v exceeds the current value (a
// high-water mark, e.g. the worst voltage drop seen).
func (g *Gauge) SetMax(v float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets. Bounds are the
// ascending inclusive upper bounds of each bucket; one implicit overflow
// bucket (+Inf) follows. Observe is lock-free and allocation-free.
type Histogram struct {
	name    string
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, last is overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until the first observation
	maxBits atomic.Uint64 // -Inf until the first observation
}

func newHistogram(name string, bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{name: name, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value when observability is enabled.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	// sort.SearchFloat64s finds the first bound >= v with bounds treated
	// as inclusive upper edges.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBounds returns n exponential bucket bounds start, start*factor, ...
func ExpBounds(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBounds returns n evenly spaced bounds from lo to hi inclusive.
func LinearBounds(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{hi}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// LatencyBoundsNS returns the log-scale bucket bounds used for latency
// histograms (values in nanoseconds): powers of two from 1 ns to ~16.8 ms,
// bracketing the 15 ns best-case and 2.3 us worst-case RESET latencies
// with queueing headroom.
func LatencyBoundsNS() []float64 { return ExpBounds(1, 2, 25) }

// VoltageBounds returns the linear bucket bounds used for voltage
// histograms: 0.1 V steps across the 0-4 V operating range.
func VoltageBounds() []float64 { return LinearBounds(0.1, 4.0, 40) }

// Registry holds named metrics. Lookup is get-or-create; handles are
// stable, so instrumented packages resolve them once at init.
//
// Alongside the maps the registry maintains a copy-on-write view — an
// immutable, name-sorted slice of every handle, swapped atomically on
// each registration. Snapshot reads the view and the metrics' own
// atomics, so scraping (the telemetry server's /metrics) never takes
// the registry mutex and never contends with registrations on hot
// paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	view     atomic.Pointer[metricView]
}

// metricView is one immutable generation of the registry's handles,
// each slice sorted by metric name.
type metricView struct {
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// rebuildViewLocked publishes a fresh view after a registration; callers
// hold r.mu. Registrations are rare (handles resolve once at package
// init), so the O(n log n) rebuild is off every hot path.
func (r *Registry) rebuildViewLocked() {
	v := &metricView{
		counters: make([]*Counter, 0, len(r.counters)),
		gauges:   make([]*Gauge, 0, len(r.gauges)),
		hists:    make([]*Histogram, 0, len(r.hists)),
	}
	for _, c := range r.counters {
		v.counters = append(v.counters, c)
	}
	for _, g := range r.gauges {
		v.gauges = append(v.gauges, g)
	}
	for _, h := range r.hists {
		v.hists = append(v.hists, h)
	}
	sort.Slice(v.counters, func(i, j int) bool { return v.counters[i].name < v.counters[j].name })
	sort.Slice(v.gauges, func(i, j int) bool { return v.gauges[i].name < v.gauges[j].name })
	sort.Slice(v.hists, func(i, j int) bool { return v.hists[i].name < v.hists[j].name })
	r.view.Store(v)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented layer
// registers into.
func Default() *Registry { return defaultRegistry }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
		r.rebuildViewLocked()
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
		r.rebuildViewLocked()
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The bounds
// apply only on first creation; later callers share the existing buckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(name, bounds)
		r.hists[name] = h
		r.rebuildViewLocked()
	}
	return h
}

// ResetValues zeroes every registered metric, keeping registrations (used
// between runs and by tests).
func (r *Registry) ResetValues() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sumBits.Store(0)
		h.minBits.Store(math.Float64bits(math.Inf(1)))
		h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	}
}

// C returns the named counter of the default registry.
func C(name string) *Counter { return defaultRegistry.Counter(name) }

// G returns the named gauge of the default registry.
func G(name string) *Gauge { return defaultRegistry.Gauge(name) }

// H returns the named histogram of the default registry.
func H(name string, bounds []float64) *Histogram { return defaultRegistry.Histogram(name, bounds) }
