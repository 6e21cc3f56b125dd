package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"reramsim/internal/dist"
	"reramsim/internal/experiments"
	"reramsim/internal/jobs"
	"reramsim/internal/par"
)

// distRunnerFactory builds the worker-side cell executor for each grid
// spec the coordinator announces. The suite is rebuilt from the wire
// config without recalibrating; the locally recomputed digest must
// match the lease's pin, so a worker can never run cells under a
// configuration that drifted from the coordinator's journal. Successive
// suites adopt the previous suite's scheme cache, so a standing worker
// serving back-to-back sweeps (differing only in seed or access budget)
// skips scheme construction after the first.
//
// RERAMSIM_DIST_HANG_CELL names a cell key that blocks forever instead
// of simulating — the crash-tolerance tests use it to pin a cell on a
// worker that is then SIGKILLed. RERAMSIM_DIST_DIVERGE_CELL names a
// cell whose payload is subtly altered (a trailing space: still valid
// JSON, different digest) — the audit e2e uses it to model a worker
// that computes a wrong-but-well-formed result.
func distRunnerFactory() func(dist.GridSpec) (dist.CellFunc, error) {
	hang := os.Getenv("RERAMSIM_DIST_HANG_CELL")
	diverge := os.Getenv("RERAMSIM_DIST_DIVERGE_CELL")
	var mu sync.Mutex
	var prev *experiments.Suite
	return func(spec dist.GridSpec) (dist.CellFunc, error) {
		suite, err := experiments.NewWorkerSuite(spec.Array, spec.Mem, "")
		if err != nil {
			return nil, err
		}
		pairs := make([]experiments.SimPair, len(spec.Pairs))
		for i, p := range spec.Pairs {
			pairs[i] = experiments.SimPair{Scheme: p.Scheme, Workload: p.Workload}
		}
		digest, err := suite.GridDigest(pairs)
		if err != nil {
			return nil, err
		}
		if digest != spec.Digest {
			return nil, fmt.Errorf("grid digest mismatch: coordinator pinned %s, local config yields %s", spec.Digest, digest)
		}
		mu.Lock()
		suite.AdoptSchemes(prev)
		prev = suite
		mu.Unlock()
		return func(ctx context.Context, key string) ([]byte, error) {
			if hang != "" && key == hang {
				<-ctx.Done()
				return nil, context.Cause(ctx)
			}
			out, err := suite.RunCell(ctx, key)
			if err == nil && diverge != "" && (diverge == "*" || diverge == key) {
				out = append(out, ' ')
			}
			return out, err
		}, nil
	}
}

// runWorkerMode runs -worker: either a one-shot lease loop against
// -join, or a standing agent on -listen waiting for coordinators to
// attach. Returns the process exit code.
//
// RERAMSIM_DIST_CORRUPT_CELL names a cell whose shipped segment gets a
// byte flipped on the wire ("*" = every cell) — the chaos e2e uses it
// to model a worker whose results rot in transit; the coordinator must
// refuse the segment and debit the worker's health score.
func runWorkerMode(ctx context.Context, join, listen string, maxCells int) int {
	opts := dist.WorkerOptions{
		Join:      join,
		Max:       maxCells,
		NewRunner: distRunnerFactory(),
		Log:       os.Stderr,
	}
	if corrupt := os.Getenv("RERAMSIM_DIST_CORRUPT_CELL"); corrupt != "" {
		opts.MangleSegment = func(key string, seg []byte) []byte {
			if corrupt != "*" && corrupt != key {
				return seg
			}
			out := append([]byte(nil), seg...)
			out[len(out)/2] ^= 0x01
			return out
		}
	}
	if opts.Max <= 0 {
		opts.Max = par.Jobs()
	}
	var err error
	if listen != "" {
		err = dist.RunAgent(ctx, dist.AgentOptions{Addr: listen, Worker: opts})
	} else {
		err = dist.RunWorker(ctx, opts)
	}
	switch {
	case err == nil:
		return 0
	case ctx.Err() != nil:
		fmt.Fprintln(os.Stderr, "reramsim: worker interrupted")
		return jobs.ExitInterrupted
	default:
		fmt.Fprintln(os.Stderr, "reramsim:", err)
		return 1
	}
}

// runCoordinated executes the sweep by leasing its cells to joined
// workers instead of running them in-process. The engine, journal and
// report are the same objects a local run uses, so output and resume
// behaviour are identical.
func runCoordinated(suite *experiments.Suite, eng *jobs.Engine, pairs []experiments.SimPair, digest, addr string, ttl time.Duration, auditFraction float64) (*jobs.Report, error) {
	spec := dist.GridSpec{
		Array:  suite.Cfg,
		Mem:    suite.MemCfg,
		Digest: digest,
		Pairs:  make([]dist.Pair, len(pairs)),
	}
	for i, p := range pairs {
		spec.Pairs[i] = dist.Pair{Scheme: p.Scheme, Workload: p.Workload}
	}
	c, err := dist.StartCoordinator(dist.CoordinatorOptions{
		Addr:          addr,
		LeaseTTL:      ttl,
		AuditFraction: auditFraction,
		Log:           os.Stderr,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// The e2e harness and humans alike read the bound address off stderr.
	fmt.Fprintf(os.Stderr, "reramsim: coordinator listening on %s\n", c.Addr())
	return c.RunSweep(suite.Context(), spec, eng)
}
