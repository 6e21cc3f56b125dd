package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"reramsim/internal/experiments"
	"reramsim/internal/jobs"
)

// Backend is the simulation substrate behind the HTTP surface. The
// production implementation is SuiteBackend; tests substitute doubles
// with controllable latency, failures and panics.
type Backend interface {
	// Validate rejects an unknown scheme or workload with a descriptive
	// error (mapped to 400).
	Validate(scheme, workload string) error
	// Digest derives the content-addressed identity of a sweep grid:
	// two requests with equal digests are the same question and share
	// one execution.
	Digest(pairs []experiments.SimPair) (string, error)
	// Solve runs one (scheme, workload) simulation under ctx.
	Solve(ctx context.Context, scheme, workload string) (json.RawMessage, error)
	// Sweep runs a grid under ctx as crash-safe jobs. onProgress, when
	// non-nil, receives a live progress source once the engine exists
	// (feeding the /v1/jobs SSE stream).
	Sweep(ctx context.Context, digest string, pairs []experiments.SimPair,
		onProgress func(func() jobs.Progress)) (*jobs.Report, error)
}

// SuiteBackend serves requests from one calibrated experiments.Suite.
// The suite's own concurrency story carries the load: per-key
// singleflight collapses identical sims, results cache in memory, and
// sweeps fan out on the shared par pool.
type SuiteBackend struct {
	Suite *experiments.Suite
	// CheckpointRoot, when set, journals each sweep job under
	// <root>/<digest>/ with Resume on — a re-requested sweep (same
	// digest) after a crash or restart serves finished cells from disk.
	CheckpointRoot string
	// CellTimeout bounds each grid cell (jobs.Options.CellTimeout).
	CellTimeout time.Duration
}

func (b *SuiteBackend) Validate(scheme, workload string) error {
	if err := validateName("scheme", scheme, experiments.SchemeNames()); err != nil {
		return err
	}
	return validateName("workload", workload, experiments.Workloads())
}

// validateName mirrors the CLIs' did-you-mean behaviour for the API.
func validateName(kind, name string, valid []string) error {
	for _, v := range valid {
		if v == name {
			return nil
		}
	}
	if sugg := experiments.Suggest(name, valid); len(sugg) > 0 {
		return fmt.Errorf("unknown %s %q (did you mean %s?)", kind, name, strings.Join(sugg, ", "))
	}
	return fmt.Errorf("unknown %s %q (valid: %s)", kind, name, strings.Join(valid, ", "))
}

func (b *SuiteBackend) Digest(pairs []experiments.SimPair) (string, error) {
	return b.Suite.GridDigest(pairs)
}

func (b *SuiteBackend) Solve(ctx context.Context, scheme, workload string) (json.RawMessage, error) {
	r, err := b.Suite.SimContext(ctx, scheme, workload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

func (b *SuiteBackend) Sweep(ctx context.Context, digest string, pairs []experiments.SimPair,
	onProgress func(func() jobs.Progress)) (*jobs.Report, error) {
	opts := jobs.Options{CellTimeout: b.CellTimeout}
	if b.CheckpointRoot != "" {
		// One journal directory per grid digest: different grids never
		// collide, and an identical grid re-requested after a kill
		// resumes from its own checkpoints.
		opts.Dir = filepath.Join(b.CheckpointRoot, digest)
		opts.Resume = true
		opts.Digest = digest
	}
	eng, err := jobs.Open(opts)
	if err != nil {
		return nil, err
	}
	if onProgress != nil {
		onProgress(eng.Progress)
	}
	return b.Suite.RunGridContext(ctx, eng, pairs)
}
