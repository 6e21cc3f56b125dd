// Package obs is the simulator-wide observability layer. It has two
// instruments: a concurrent-safe metrics registry of counters and
// gauges, and hierarchical spans exported as Chrome trace events.
//
// The metrics count the program's own work: solver sweeps and exits,
// memo and solve-cache hits, the journal, the worker pool, the server,
// completed simulations and the runtime.* resources. What a simulated
// machine did (reads, writes, retries, latencies) is the simulation's
// result, not a metric: it lives in memsys.Result and the figures.
//
// The package is dependency-free (standard library only) and designed so
// the disabled path costs nothing measurable: every mutation is gated on
// one atomic flag and performs no allocation. Enable it with
// SetEnabled(true) — cmd/reramsim does this when -metrics or -obs-addr
// is given, cmd/figures for -obs-addr, and reramd always.
//
// Metric names follow the layer.subsystem.name convention, e.g.
// "xpoint.reset.sweeps" or "solvecache.hits".
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

// SetEnabled turns metric collection on or off.
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
	view     atomic.Pointer[metricView]
}

// metricView is one immutable generation of the registry's handles,
// each slice sorted by metric name.
type metricView struct {
	counters []*Counter
	gauges   []*Gauge
}

// rebuildViewLocked publishes a fresh view after a registration; callers
// hold r.mu. Registrations are rare (handles resolve once at package
// init), so the O(n log n) rebuild is off every hot path.
func (r *Registry) rebuildViewLocked() {
	v := &metricView{
		counters: make([]*Counter, 0, len(r.counters)),
		gauges:   make([]*Gauge, 0, len(r.gauges)),
	}
	for _, c := range r.counters {
		v.counters = append(v.counters, c)
	}
	for _, g := range r.gauges {
		v.gauges = append(v.gauges, g)
	}
	sort.Slice(v.counters, func(i, j int) bool { return v.counters[i].name < v.counters[j].name })
	sort.Slice(v.gauges, func(i, j int) bool { return v.gauges[i].name < v.gauges[j].name })
	r.view.Store(v)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
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
}

// C returns the named counter of the default registry.
func C(name string) *Counter { return defaultRegistry.Counter(name) }

// G returns the named gauge of the default registry.
func G(name string) *Gauge { return defaultRegistry.Gauge(name) }
