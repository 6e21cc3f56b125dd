// Command figures regenerates the paper's tables and figures.
//
// Usage:
//
//	figures                  # run every experiment
//	figures -exp fig15       # one experiment
//	figures -accesses 5000   # simulation length per core
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reramsim/internal/core"
	"reramsim/internal/experiments"
	"reramsim/internal/jobs"
	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/solvecache"
	"reramsim/internal/telemetry"
)

// cleanup writes the solve cache's pending memo dumps and tears the
// observability stack down before the process exits; os.Exit skips
// deferred calls, so every exit path routes through it (it is
// idempotent). Installed in main once the stack is up.
var cleanup = func() {}

func main() {
	var (
		exp      = flag.String("exp", "", "comma-separated experiment ids (default: all); see -list")
		accesses = flag.Int("accesses", 5000, "memory accesses simulated per core")
		jobsFlag = flag.Int("jobs", 0, "max parallel simulations/solves (0 = GOMAXPROCS); output is identical at any setting")
		list     = flag.Bool("list", false, "list experiment ids and exit")

		checkpointDir = flag.String("checkpoint-dir", "", "journal every simulation cell to this directory (crash-safe; cold start)")
		resumeDir     = flag.String("resume", "", "resume journaled sweeps from this checkpoint directory, skipping finished cells; without -solve-cache on both runs, RESET ops the killed run priced are solved again")
		cellTimeout   = flag.Duration("cell-timeout", 0, "per-cell deadline for every simulation cell (0 = none)")

		solveCacheDir = flag.String("solve-cache", "", "directory for the persistent solve cache (default: disabled); results are identical with or without it")

		obsAddr    = flag.String("obs-addr", "", "serve live telemetry (/metrics, /healthz, /readyz, /debug/pprof/) on this address (e.g. localhost:6060)")
		traceSpans = flag.String("trace-spans", "", "write hierarchical spans as a Chrome trace-event file (load in ui.perfetto.dev)")
	)
	flag.Parse()
	par.SetJobs(*jobsFlag)
	if *checkpointDir != "" && *resumeDir != "" {
		fail(fmt.Errorf("-checkpoint-dir and -resume are mutually exclusive (resume implies the checkpoint dir)"))
	}
	if *solveCacheDir != "" {
		sc, err := solvecache.Open(*solveCacheDir)
		if err != nil {
			fail(fmt.Errorf("-solve-cache: %w", err))
		}
		core.SetSolveCache(sc)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if *obsAddr != "" { // /metrics is the registry's only reader here
		obs.SetEnabled(true)
	}
	stack, err := telemetry.StartStack(telemetry.StackOptions{Addr: *obsAddr, TraceSpans: *traceSpans})
	if err != nil {
		fail(err)
	}
	var suite *experiments.Suite // set once calibrated
	cleanup = func() {
		if suite != nil {
			suite.FlushSolveCache() // ops priced outside a simulation (Figs. 5b, 18-20)
		}
		if err := stack.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
		}
	}
	defer cleanup()

	// SIGINT/SIGTERM cancel the suite's context with a typed cause: a
	// running simulation stops inside its event loop, experiments
	// already printed stay on screen, journaled cells stay on disk, and
	// the process exits 130.
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if sig, ok := <-sigc; ok {
			cancel(&jobs.InterruptError{Sig: sig})
		}
	}()

	suite, err = experiments.NewSuite(*accesses)
	if err != nil {
		fail(err)
	}
	suite.SetContext(ctx)

	// Every figure's grid runs through one engine, which journals when
	// -checkpoint-dir or -resume names a directory. The digest pins the
	// suite's array and memory configs plus the full scheme x workload
	// universe; a sweep cell on any other config carries a digest of its
	// own configs in its key.
	dir, resume := *checkpointDir, false
	if *resumeDir != "" {
		dir, resume = *resumeDir, true
	}
	universe := make([]experiments.SimPair, 0)
	for _, sc := range experiments.SchemeNames() {
		for _, w := range experiments.Workloads() {
			universe = append(universe, experiments.SimPair{Scheme: sc, Workload: w})
		}
	}
	digest, err := suite.GridDigest(universe)
	if err != nil {
		fail(err)
	}
	eng, err := jobs.Open(jobs.Options{Dir: dir, Resume: resume, Digest: digest, CellTimeout: *cellTimeout})
	if err != nil {
		fail(err)
	}
	suite.SetEngine(eng)
	stack.SetReady(true) // suite calibrated: work can be admitted

	var selected []experiments.Experiment
	if *exp == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fail(err)
			}
			selected = append(selected, e)
		}
	}

	partial := false
	for _, e := range selected {
		start := time.Now()
		out, err := e.Run(suite)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "figures: interrupted during %s; results above are partial\n", e.ID)
				cleanup()
				os.Exit(jobs.ExitInterrupted)
			}
			if errors.Is(err, jobs.ErrQuarantined) {
				// The rest of the grid finished; only this figure's
				// rendering is blocked by its quarantined cell(s).
				fmt.Fprintf(os.Stderr, "figures: %s: %v\n", e.ID, err)
				partial = true
				continue
			}
			fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Printf("== %s (%s, %v)\n%s\n", e.ID, e.Title, time.Since(start).Round(time.Millisecond), out)
	}
	if partial {
		cleanup()
		os.Exit(jobs.ExitPartial)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	cleanup()
	os.Exit(1)
}
