package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"reramsim/internal/core"
	"reramsim/internal/memsys"
	"reramsim/internal/xpoint"
)

// Distributed-worker glue: a worker process receives the sweep's full
// configuration over the wire (the coordinator ships its calibrated
// xpoint.Config and memsys.Config inside the grid spec) and rebuilds a
// Suite from those plain values without recalibrating — the Eq. 1
// constants arrive already fitted, so the worker's suite is the same
// suite the coordinator owns, and GridDigest recomputed on the worker
// matches the coordinator's digest exactly. Cells then execute through
// RunCell, the same code path a local engine cell runs, which is what
// makes worker-returned payloads byte-identical to locally computed
// ones.

// NewWorkerSuite rebuilds the suite for a distributed sweep from its
// wire configuration: a calibrated array config and the full
// memory-system config. No calibration runs — the configs are used as
// shipped. The exact solver is the only one, so solver must be empty;
// the parameter remains only because the benchmark module still passes
// "" for it.
func NewWorkerSuite(cfg xpoint.Config, mem memsys.Config, solver string) (*Suite, error) {
	if solver != "" {
		return nil, fmt.Errorf("experiments: worker suite: solver %q: the exact solver is the only one", solver)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: worker suite: %w", err)
	}
	s := newSuitePrecalibrated(cfg, 0)
	s.MemCfg = mem
	s.MemCfg.Heartbeat = nil // local hook never crosses the wire
	return s, nil
}

// RunCell executes one grid cell by its journal key ("scheme/workload")
// and returns the cell's journal payload — produced by the exact code a
// local engine cell runs (SimContext + JSON marshal), so a worker's
// record bytes are interchangeable with a local run's.
func (s *Suite) RunCell(ctx context.Context, key string) ([]byte, error) {
	scheme, workload, ok := strings.Cut(key, "/")
	if !ok || scheme == "" || workload == "" {
		return nil, fmt.Errorf("experiments: malformed cell key %q (want scheme/workload)", key)
	}
	r, err := s.SimContext(ctx, scheme, workload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// AdoptSchemes copies prev's built scheme cache into s when both suites
// share the identical array configuration. Schemes are immutable after
// construction and depend only on Cfg — their memo tables are
// concurrency-safe caches — so the copy is safe and skips rebuilding
// identical level tables. A standing worker fleet uses this to serve
// back-to-back sweeps that differ only in memory-system settings (seed,
// access budget) without paying scheme construction each time. Suites
// with a different array config adopt nothing.
func (s *Suite) AdoptSchemes(prev *Suite) {
	if prev == nil || s == prev || s.Cfg != prev.Cfg {
		return
	}
	prev.mu.Lock()
	copied := make(map[string]*core.Scheme, len(prev.schemes))
	for name, sc := range prev.schemes {
		copied[name] = sc
	}
	prev.mu.Unlock()
	s.mu.Lock()
	for name, sc := range copied {
		if _, ok := s.schemes[name]; !ok {
			s.schemes[name] = sc
		}
	}
	s.mu.Unlock()
}
