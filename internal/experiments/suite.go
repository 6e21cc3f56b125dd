// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Fig*/Table* method returns printable output; cmd/figures
// runs them all and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"reramsim/internal/core"
	"reramsim/internal/jobs"
	"reramsim/internal/memsys"
	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/trace"
	"reramsim/internal/xpoint"
)

// Suite owns a calibrated configuration plus lazily built schemes and
// cached simulation results, so figures sharing inputs do not recompute
// them. A Suite is safe for concurrent use: cache misses are deduplicated
// per key (two callers racing on the same scheme or simulation share one
// execution instead of running it twice), and every figure's grid fans
// out as jobs cells on the internal/par worker pool.
type Suite struct {
	Cfg    xpoint.Config // calibrated baseline array configuration
	MemCfg memsys.Config

	mu      sync.Mutex
	ctx     context.Context // stops simulations; nil = Background
	schemes map[schemeKey]*core.Scheme
	sims    map[cell]*memsys.Result

	// engine, when attached, runs every grid of the suite as crash-safe
	// journaled jobs (internal/jobs): completed cells are checkpointed,
	// resumed runs skip them, and panics quarantine a cell instead of
	// failing the sweep.
	engine *jobs.Engine

	// Per-key in-flight tracking: a second caller that misses a cache
	// while the first caller is still computing the same key waits for
	// that result instead of running the computation twice.
	schemeFlight par.Group[schemeKey, *core.Scheme]
	simFlight    par.Group[cell, *memsys.Result]
}

// cell identifies one simulation: a scheme on a workload, under an
// array and a memory configuration. Both configs are flat comparable
// structs, so a cell is a map key as it stands.
type cell struct {
	Array    xpoint.Config
	Mem      memsys.Config
	Scheme   string
	Workload string
}

// schemeKey identifies one scheme build: a named scheme on an array
// configuration.
type schemeKey struct {
	Array xpoint.Config
	Name  string
}

// NewSuite calibrates the default configuration and prepares caches.
// accessesPerCore bounds each simulation's length (0 selects the default).
func NewSuite(accessesPerCore int) (*Suite, error) {
	cfg := xpoint.DefaultConfig()
	p, err := xpoint.CalibrateLatency(cfg, xpoint.BestCaseLatency, xpoint.WorstCaseLatency)
	if err != nil {
		return nil, err
	}
	cfg.Params = p
	return newSuitePrecalibrated(cfg, accessesPerCore), nil
}

// newSuitePrecalibrated wraps a configuration whose Eq. 1 constants are
// already fitted.
func newSuitePrecalibrated(cfg xpoint.Config, accessesPerCore int) *Suite {
	mc := memsys.DefaultConfig()
	if accessesPerCore > 0 {
		mc.AccessesPerCore = accessesPerCore
	}
	return &Suite{
		Cfg:     cfg,
		MemCfg:  mc,
		schemes: make(map[schemeKey]*core.Scheme),
		sims:    make(map[cell]*memsys.Result),
	}
}

// SetContext attaches a cancellation context: it stops a running
// simulation inside its event loop and skips the ones not yet started,
// so an interrupted sweep returns promptly with the runs it completed
// instead of finishing the whole grid.
func (s *Suite) SetContext(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctx = ctx
}

// Context returns the attached context, or Background when none is.
func (s *Suite) Context() context.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// schemeBuilders maps the §VI configuration names to constructors.
var schemeBuilders = map[string]func(xpoint.Config) (*core.Scheme, error){
	"Base":         core.Baseline,
	"Static-3.70V": func(c xpoint.Config) (*core.Scheme, error) { return core.StaticOverdrive(c, 3.7) },
	"Hard":         core.Hard,
	"Hard+Sys":     core.HardSys,
	"DRVR":         core.DRVROnly,
	"DRVR+PR":      core.DRVRPR,
	"UDRVR+PR":     core.UDRVRPR,
	"UDRVR-3.94":   core.UDRVR394,
	"ora-64x64":    func(c xpoint.Config) (*core.Scheme, error) { return core.Oracle(c, 64) },
	"ora-128x128":  func(c xpoint.Config) (*core.Scheme, error) { return core.Oracle(c, 128) },
	"ora-256x256":  func(c xpoint.Config) (*core.Scheme, error) { return core.Oracle(c, 256) },
}

// SchemeNames lists the available configurations in evaluation order.
func SchemeNames() []string {
	return []string{
		"Base", "Static-3.70V", "Hard", "Hard+Sys", "DRVR", "DRVR+PR",
		"UDRVR+PR", "UDRVR-3.94", "ora-64x64", "ora-128x128", "ora-256x256",
	}
}

// Scheme returns (building and caching on first use) a named scheme on
// the suite's array config.
func (s *Suite) Scheme(name string) (*core.Scheme, error) {
	return s.scheme(s.Cfg, name)
}

// scheme returns (building and caching on first use) a named scheme on
// an array config. Concurrent first uses of one (config, name) share
// one calibration.
func (s *Suite) scheme(array xpoint.Config, name string) (*core.Scheme, error) {
	k := schemeKey{array, name}
	s.mu.Lock()
	sc, ok := s.schemes[k]
	s.mu.Unlock()
	if ok {
		return sc, nil
	}
	sc, _, err := s.schemeFlight.Do(k, func() (*core.Scheme, error) {
		// Re-check: this flight may start after a previous one for the
		// same key already stored its result.
		s.mu.Lock()
		sc, ok := s.schemes[k]
		s.mu.Unlock()
		if ok {
			return sc, nil
		}
		build, ok := schemeBuilders[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown scheme %q", name)
		}
		if obs.SpansEnabled() {
			defer obs.SpanScope("scheme:" + name)()
		}
		sc, err := build(array)
		if err != nil {
			return nil, fmt.Errorf("experiments: building %s: %w", name, err)
		}
		s.mu.Lock()
		s.schemes[k] = sc
		s.mu.Unlock()
		return sc, nil
	})
	return sc, err
}

// Sim runs (and caches) a simulation of workload under scheme. Two
// callers that both miss the cache for the same key share one execution:
// the second waits for the first result instead of running the
// simulation twice.
func (s *Suite) Sim(scheme, workload string) (*memsys.Result, error) {
	return s.SimContext(s.Context(), scheme, workload)
}

// SimContext is Sim under an explicit context: the run is skipped when
// ctx is already cancelled, and ctx stops a running simulation inside
// its event loop.
func (s *Suite) SimContext(ctx context.Context, scheme, workload string) (*memsys.Result, error) {
	return s.sim(ctx, cell{s.Cfg, s.MemCfg, scheme, workload})
}

// sim runs (and caches) one cell. Concurrent callers for one cell share
// a single execution, governed by the context of the caller that
// started it. A failed run is never cached, so a caller whose shared
// run failed while its own context is alive runs the cell again: it
// sees its own result or its own error, never another caller's
// cancellation.
func (s *Suite) sim(ctx context.Context, c cell) (*memsys.Result, error) {
	for {
		s.mu.Lock()
		r, ok := s.sims[c]
		s.mu.Unlock()
		if ok {
			return r, nil
		}
		r, shared, err := s.simFlight.Do(c, func() (*memsys.Result, error) {
			return s.runSim(ctx, c)
		})
		if err == nil || !shared || ctx.Err() != nil {
			return r, err
		}
	}
}

// runSim executes one simulation and stores its result. It re-checks
// the cache first: a caller that missed the cache may enter a fresh
// flight only after the previous flight for the same cell already
// stored its result.
func (s *Suite) runSim(ctx context.Context, c cell) (*memsys.Result, error) {
	s.mu.Lock()
	r, ok := s.sims[c]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	if err := ctx.Err(); err != nil {
		if cause := context.Cause(ctx); cause != nil {
			err = cause
		}
		return nil, fmt.Errorf("experiments: %s on %s: %w", c.Scheme, c.Workload, err)
	}
	if obs.SpansEnabled() {
		var stop func()
		ctx, stop = obs.StartSpan(ctx, "sim:"+c.Scheme+"/"+c.Workload)
		defer stop()
	}
	sc, err := s.scheme(c.Array, c.Scheme)
	if err != nil {
		return nil, err
	}
	b, err := trace.ByName(c.Workload)
	if err != nil {
		return nil, err
	}
	r, err = memsys.SimulateContext(ctx, sc, b, c.Mem)
	// The ops this run solved reach the solve cache before the caller
	// (the jobs engine) can journal the cell, whether the run finished
	// or stopped.
	sc.FlushMemo()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", c.Scheme, c.Workload, err)
	}
	s.mu.Lock()
	s.sims[c] = r
	s.mu.Unlock()
	return r, nil
}

// FlushSolveCache writes the memo dump of every scheme the suite has
// built whose memo grew since its last write (core.Scheme.FlushMemo).
// Simulations flush their own ops; this covers ops priced outside any
// simulation, such as WorstWriteCost under Fig. 5b, the lifetime
// estimate and the worst-write column of Figs. 18-20. The CLIs call it
// on every exit path.
func (s *Suite) FlushSolveCache() {
	s.mu.Lock()
	scs := make([]*core.Scheme, 0, len(s.schemes))
	for _, sc := range s.schemes {
		scs = append(scs, sc)
	}
	s.mu.Unlock()
	for _, sc := range scs {
		sc.FlushMemo()
	}
}

// SimPair identifies one (scheme, workload) simulation of a sweep on
// the suite's own configs.
type SimPair struct {
	Scheme   string
	Workload string
}

// crossPairs builds the schemes x workloads product in deterministic
// (row-major) order.
func crossPairs(schemes, workloads []string) []SimPair {
	pairs := make([]SimPair, 0, len(schemes)*len(workloads))
	for _, sc := range schemes {
		for _, w := range workloads {
			pairs = append(pairs, SimPair{Scheme: sc, Workload: w})
		}
	}
	return pairs
}

// cells places pairs on an array and a memory config.
func cells(array xpoint.Config, mem memsys.Config, pairs []SimPair) []cell {
	cs := make([]cell, len(pairs))
	for i, p := range pairs {
		cs[i] = cell{array, mem, p.Scheme, p.Workload}
	}
	return cs
}

// PrimeSims runs the given simulations on the suite's own configs as
// one grid, filling the Suite's result cache. Sweep renderers call it
// before their serial formatting loop: the loop then reads cache hits,
// so the rendered output is byte-identical to a fully serial (-jobs=1)
// run while the simulations themselves use every worker. Duplicate
// pairs collapse onto one cell.
//
// With an engine attached (SetEngine), the grid's completed cells
// checkpoint to disk and a resumed engine serves them without
// re-simulating. A quarantined cell (panic, timeout, error) yields an
// error wrapping jobs.ErrQuarantined after the rest of the grid
// finishes.
func (s *Suite) PrimeSims(pairs []SimPair) error {
	return s.grid(s.Context(), cells(s.Cfg, s.MemCfg, pairs))
}

// grid is the one fan-out path of the suite's figures: it runs cells
// through the attached engine, or through a journal-less one when none
// is attached.
func (s *Suite) grid(ctx context.Context, cs []cell) error {
	ctx, stopSpan := obs.StartSpan(ctx, "experiments.sweep")
	defer stopSpan()
	s.mu.Lock()
	eng := s.engine
	s.mu.Unlock()
	if eng == nil {
		var err error
		if eng, err = jobs.Open(jobs.Options{}); err != nil {
			return err
		}
	}
	rep, err := s.runCells(ctx, eng, cs)
	if err != nil {
		return err
	}
	if !rep.Complete() {
		keys := make([]string, len(rep.Quarantined))
		for i, q := range rep.Quarantined {
			keys[i] = q.Key
		}
		return fmt.Errorf("experiments: %d cell(s) quarantined (%s): %w",
			len(keys), strings.Join(keys, ", "), jobs.ErrQuarantined)
	}
	return nil
}

// SetEngine attaches a jobs engine: every later grid of the suite runs
// through it (journaled, resumable, panic-isolated, bounded by its cell
// deadline). Pass nil to detach.
func (s *Suite) SetEngine(eng *jobs.Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine = eng
}

// Workloads returns the Table IV workload names in paper order.
func Workloads() []string {
	bs := trace.Benchmarks()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}
