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
// per key (two callers racing on the same scheme, simulation or variant
// share one execution instead of running it twice), and sweeps fan their
// independent simulations out on the internal/par worker pool.
type Suite struct {
	Cfg    xpoint.Config // calibrated baseline array configuration
	MemCfg memsys.Config

	mu      sync.Mutex
	ctx     context.Context // cancels between simulations; nil = Background
	parent  *Suite          // variant suites follow their parent's context
	schemes map[string]*core.Scheme
	sims    map[string]*memsys.Result

	// variant suites for the sweep figures (array size, node, Kr).
	variants map[string]*Suite

	// engine, when attached, makes PrimeSims run grids as crash-safe
	// journaled jobs (internal/jobs): completed cells are checkpointed,
	// resumed runs skip them, and panics quarantine a cell instead of
	// failing the sweep. Only the root suite carries an engine — variant
	// sub-suites simulate under different array configs but share cell
	// keys, so routing them through the same journal would collide.
	engine *jobs.Engine

	// Per-key in-flight tracking: a second caller that misses a cache
	// while the first caller is still computing the same key waits for
	// that result instead of running the computation twice.
	schemeFlight  par.Group[string, *core.Scheme]
	simFlight     par.Group[string, *memsys.Result]
	variantFlight par.Group[string, *Suite]
}

// NewSuite calibrates the default configuration and prepares caches.
// accessesPerCore bounds each simulation's length (0 selects the default).
func NewSuite(accessesPerCore int) (*Suite, error) {
	return NewSuiteWithConfig(xpoint.DefaultConfig(), accessesPerCore)
}

// NewSuiteWithConfig calibrates an arbitrary array configuration.
func NewSuiteWithConfig(cfg xpoint.Config, accessesPerCore int) (*Suite, error) {
	p, err := xpoint.CalibrateLatency(cfg, xpoint.BestCaseLatency, xpoint.WorstCaseLatency)
	if err != nil {
		return nil, err
	}
	cfg.Params = p
	return newSuitePrecalibrated(cfg, accessesPerCore), nil
}

// newSuitePrecalibrated wraps a configuration whose Eq. 1 constants are
// already fitted. The Fig. 18-20 sweeps use this: device constants are
// fitted once on the default array and held fixed while geometry or
// selector parameters vary, exactly as in the paper.
func newSuitePrecalibrated(cfg xpoint.Config, accessesPerCore int) *Suite {
	mc := memsys.DefaultConfig()
	if accessesPerCore > 0 {
		mc.AccessesPerCore = accessesPerCore
	}
	return &Suite{
		Cfg:      cfg,
		MemCfg:   mc,
		schemes:  make(map[string]*core.Scheme),
		sims:     make(map[string]*memsys.Result),
		variants: make(map[string]*Suite),
	}
}

// SetContext attaches a cancellation context: experiments check it
// between simulations, so an interrupted sweep returns promptly with
// the runs it completed instead of finishing the whole grid. Variant
// sub-suites follow their parent's context live (unless they are given
// one of their own), so cancelling the parent also stops in-flight
// variant sweeps.
func (s *Suite) SetContext(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctx = ctx
}

// Context returns the attached context; a variant suite without its own
// context inherits its parent's, and Background is the fallback.
func (s *Suite) Context() context.Context {
	s.mu.Lock()
	ctx, parent := s.ctx, s.parent
	s.mu.Unlock()
	if ctx != nil {
		return ctx
	}
	if parent != nil {
		return parent.Context()
	}
	return context.Background()
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

// Scheme returns (building and caching on first use) a named scheme.
// Concurrent first uses of the same name share one calibration.
func (s *Suite) Scheme(name string) (*core.Scheme, error) {
	s.mu.Lock()
	sc, ok := s.schemes[name]
	s.mu.Unlock()
	if ok {
		return sc, nil
	}
	sc, _, err := s.schemeFlight.Do(name, func() (*core.Scheme, error) {
		// Re-check: this flight may start after a previous one for the
		// same name already stored its result.
		s.mu.Lock()
		sc, ok := s.schemes[name]
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
		sc, err := build(s.Cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: building %s: %w", name, err)
		}
		s.mu.Lock()
		s.schemes[name] = sc
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
// ctx is already cancelled, and a jobs heartbeat carried by ctx (the
// engine's stall watchdog) is wired into the simulation's event loop.
// Concurrent callers for one key still share a single execution; the
// first caller's context governs that execution.
func (s *Suite) SimContext(ctx context.Context, scheme, workload string) (*memsys.Result, error) {
	key := scheme + "/" + workload
	s.mu.Lock()
	r, ok := s.sims[key]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	r, _, err := s.simFlight.Do(key, func() (*memsys.Result, error) {
		return s.runSim(ctx, key, scheme, workload)
	})
	return r, err
}

// runSim executes one simulation and stores its result. It re-checks
// the cache first: a caller that missed the cache may enter a fresh
// flight only after the previous flight for the same key already stored
// its result.
func (s *Suite) runSim(ctx context.Context, key, scheme, workload string) (*memsys.Result, error) {
	s.mu.Lock()
	r, ok := s.sims[key]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	if err := ctx.Err(); err != nil {
		if cause := context.Cause(ctx); cause != nil {
			err = cause
		}
		return nil, fmt.Errorf("experiments: %s on %s: %w", scheme, workload, err)
	}
	if obs.SpansEnabled() {
		var stop func()
		ctx, stop = obs.StartSpan(ctx, "sim:"+key)
		defer stop()
	}
	sc, err := s.Scheme(scheme)
	if err != nil {
		return nil, err
	}
	b, err := trace.ByName(workload)
	if err != nil {
		return nil, err
	}
	mc := s.MemCfg
	// Feed the stall watchdog from inside the event loop when this run is
	// an engine cell; Heartbeat never influences results.
	mc.Heartbeat = jobs.HeartbeatFunc(ctx)

	r, err = memsys.Simulate(sc, b, mc)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", scheme, workload, err)
	}
	s.mu.Lock()
	s.sims[key] = r
	s.mu.Unlock()
	return r, nil
}

// SimPair identifies one (scheme, workload) simulation of a sweep.
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

// PrimeSims fans the given simulations out across the par worker pool,
// filling the Suite's result cache. Sweep renderers call it before
// their serial formatting loop: the loop then reads cache hits, so the
// rendered output is byte-identical to a fully serial (-jobs=1) run
// while the simulations themselves use every worker. Duplicate pairs
// collapse onto one execution via the per-key in-flight tracking.
//
// With an engine attached (SetEngine), the grid instead runs as
// crash-safe journaled jobs: completed cells checkpoint to disk, a
// resumed engine serves them without re-simulating, and a quarantined
// cell (panic/timeout/exhausted retries) yields an error wrapping
// jobs.ErrQuarantined after the rest of the grid finishes.
func (s *Suite) PrimeSims(pairs []SimPair) error {
	ctx, stopSpan := obs.StartSpan(s.Context(), "experiments.sweep")
	defer stopSpan()
	s.mu.Lock()
	eng := s.engine
	s.mu.Unlock()
	if eng != nil {
		rep, err := s.runGrid(ctx, eng, pairs)
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
	return par.ForEach(ctx, len(pairs), func(i int) error {
		_, err := s.SimContext(ctx, pairs[i].Scheme, pairs[i].Workload)
		return err
	})
}

// SetEngine attaches a jobs engine: subsequent PrimeSims calls run
// their grids through it (journaled, resumable, panic-isolated). Pass
// nil to detach. Variant sub-suites never inherit the engine.
func (s *Suite) SetEngine(eng *jobs.Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine = eng
}

// Variant returns a cached sub-suite with a modified array configuration
// (used by the Fig. 18-20 sweeps). The key must uniquely identify the
// modification. The sub-suite simulates the same system as its parent —
// the full memory configuration (access budget, caches, seeds, fault
// settings) carries over — and follows the parent's cancellation
// context live. Concurrent first uses of the same key share one
// construction.
func (s *Suite) Variant(key string, mod func(*xpoint.Config)) (*Suite, error) {
	s.mu.Lock()
	v, ok := s.variants[key]
	s.mu.Unlock()
	if ok {
		return v, nil
	}
	v, _, err := s.variantFlight.Do(key, func() (*Suite, error) {
		s.mu.Lock()
		v, ok := s.variants[key]
		s.mu.Unlock()
		if ok {
			return v, nil
		}
		cfg := s.Cfg
		mod(&cfg)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: variant %s: %w", key, err)
		}
		v = newSuitePrecalibrated(cfg, 0)
		v.MemCfg = s.MemCfg
		v.parent = s // sub-suite sweeps honour the parent's cancellation
		s.mu.Lock()
		s.variants[key] = v
		s.mu.Unlock()
		return v, nil
	})
	return v, err
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
