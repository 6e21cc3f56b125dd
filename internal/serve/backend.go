package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"reramsim/internal/experiments"
)

// Backend is the simulation substrate behind the HTTP surface. The
// production implementation is SuiteBackend; tests substitute doubles
// with controllable latency, failures and panics.
type Backend interface {
	// Validate rejects an unknown scheme or workload with a descriptive
	// error (mapped to 400).
	Validate(scheme, workload string) error
	// Solve runs one (scheme, workload) simulation under ctx.
	Solve(ctx context.Context, scheme, workload string) (json.RawMessage, error)
}

// SuiteBackend serves requests from one calibrated experiments.Suite.
// The suite's own concurrency story carries the load: per-cell
// singleflight collapses identical in-flight sims onto one run, and
// results cache in memory.
type SuiteBackend struct {
	Suite *experiments.Suite
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

func (b *SuiteBackend) Solve(ctx context.Context, scheme, workload string) (json.RawMessage, error) {
	r, err := b.Suite.SimContext(ctx, scheme, workload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(r)
}
