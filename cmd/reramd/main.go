// Command reramd serves the calibrated reramsim suite as a hardened
// HTTP daemon: POST /v1/solve and /v1/sweep with admission control
// (per-client token buckets, bounded queue, 429/503 + Retry-After),
// per-request deadlines (504), content-addressed dedup of identical
// in-flight sweeps, panic isolation, and graceful drain on
// SIGINT/SIGTERM (in-flight work checkpoints, then exit 0).
//
//	reramd -addr localhost:8080 -checkpoint-root /var/lib/reramd
//
// Exit status: 0 after a clean (or forced-but-successful) drain, 1 on
// startup or serve failure, 130 on a second signal before the drain
// finished.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reramsim/internal/core"
	"reramsim/internal/experiments"
	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/serve"
	"reramsim/internal/solvecache"
	"reramsim/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "localhost:8080", "API listen address")
		accesses = flag.Int("accesses", 20000, "memory accesses simulated per core")
		jobsFlag = flag.Int("jobs", 0, "max parallel solves (0 = GOMAXPROCS)")

		checkpointRoot = flag.String("checkpoint-root", "", "journal each sweep under <root>/<digest>/ (crash-safe; identical re-requested sweeps resume)")
		cellTimeout    = flag.Duration("cell-timeout", 0, "per-cell deadline inside a sweep (0 = none); an exceeded cell is quarantined, not fatal")
		solveCacheDir  = flag.String("solve-cache", "", "directory for the persistent solve cache (default: disabled)")

		maxInflight = flag.Int("max-inflight", 0, "max concurrently executing compute requests (0 = 2x GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "max requests queued for a compute slot before shedding 503 (0 = 64)")
		queueWait   = flag.Duration("queue-wait", 0, "max time a request waits for a compute slot (0 = 5s)")
		ratePerSec  = flag.Float64("rate", 0, "per-client sustained requests/second (0 = 50)")
		burst       = flag.Float64("burst", 0, "per-client burst depth (0 = 100)")

		defaultDeadline = flag.Duration("default-deadline", time.Minute, "compute deadline for requests that name none")
		maxDeadline     = flag.Duration("max-deadline", 10*time.Minute, "cap on client-requested deadlines")
		drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "max time a signal-initiated drain waits for in-flight work before cancelling it")

		obsAddr    = flag.String("obs-addr", "", "serve the standalone telemetry plane (/metrics, /progress, /debug/pprof/) on this extra address; the API port always serves /metrics itself")
		traceSpans = flag.String("trace-spans", "", "write hierarchical spans as a Chrome trace-event file (load in ui.perfetto.dev)")
	)
	flag.Parse()

	// The daemon always serves /metrics on its API port, so the metric
	// plane is always on.
	obs.SetEnabled(true)
	par.SetJobs(*jobsFlag)
	if *solveCacheDir != "" {
		sc, err := solvecache.Open(*solveCacheDir)
		if err != nil {
			return fail(fmt.Errorf("-solve-cache: %w", err))
		}
		core.SetSolveCache(sc)
	}
	stack, err := telemetry.StartStack(telemetry.StackOptions{Addr: *obsAddr, TraceSpans: *traceSpans})
	if err != nil {
		return fail(err)
	}
	// Idempotent and nil-safe; closed again explicitly on the drain path.
	defer stack.Close()

	fmt.Fprintf(os.Stderr, "reramd: calibrating suite (%d accesses/core)\n", *accesses)
	suite, err := experiments.NewSuite(*accesses)
	if err != nil {
		return fail(fmt.Errorf("calibration: %w", err))
	}

	srv, err := serve.Start(serve.Options{
		Addr: *addr,
		Backend: &serve.SuiteBackend{
			Suite:          suite,
			CheckpointRoot: *checkpointRoot,
			CellTimeout:    *cellTimeout,
		},
		Admission: serve.AdmissionConfig{
			MaxInflight: *maxInflight,
			MaxQueue:    *maxQueue,
			QueueWait:   *queueWait,
			RatePerSec:  *ratePerSec,
			Burst:       *burst,
		},
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		Log:             os.Stderr,
		// Test hook for the panic-isolation e2e; unset in production.
		TestPanicWorkload: os.Getenv("RERAMD_PANIC_WORKLOAD"),
	})
	if err != nil {
		return fail(err)
	}
	// The handler must be in place before readiness is reported: a
	// client that sees /readyz 200 may signal at once, and an uncaught
	// SIGTERM would kill the daemon instead of draining it.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	srv.SetReady(true)
	stack.SetReady(true)
	fmt.Fprintf(os.Stderr, "reramd: serving on http://%s\n", srv.Addr())

	s := <-sig
	fmt.Fprintf(os.Stderr, "reramd: %v: draining (in-flight work finishes and checkpoints; new requests get 503)\n", s)
	stack.SetReady(false)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(drainCtx) }()

	select {
	case err := <-drained:
		// Telemetry shuts down after the drain so /metrics on the obs
		// port stays observable while in-flight work finishes. Stack.Close
		// is idempotent — the deferred close becomes a no-op.
		if cerr := stack.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "reramd: drain: %v\n", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "reramd: drained cleanly")
		return 0
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "reramd: second %v: aborting drain\n", s)
		srv.Close()
		return 130
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "reramd:", err)
	return 1
}
