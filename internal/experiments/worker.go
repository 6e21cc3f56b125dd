package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"reramsim/internal/memsys"
	"reramsim/internal/xpoint"
)

// NewWorkerSuite builds a suite from an already-calibrated array config
// and a full memory-system config without recalibrating: the Eq. 1
// constants in cfg are used as given, so the suite equals the one that
// calibrated them and its GridDigest matches that suite's exactly. The
// benchmark harness uses it to build many suites from one calibration.
// The exact solver is the only one, so solver must be empty; the
// parameter remains only because the benchmark module still passes ""
// for it.
func NewWorkerSuite(cfg xpoint.Config, mem memsys.Config, solver string) (*Suite, error) {
	if solver != "" {
		return nil, fmt.Errorf("experiments: worker suite: solver %q: the exact solver is the only one", solver)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: worker suite: %w", err)
	}
	s := newSuitePrecalibrated(cfg, 0)
	s.MemCfg = mem
	s.MemCfg.Heartbeat = nil // a hook belongs to the engine that installs it
	return s, nil
}

// RunCell executes one grid cell by its journal key ("scheme/workload")
// and returns the cell's journal payload: the cell's Result marshalled
// as JSON (SimContext + JSON marshal).
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
