// Command reramd serves the calibrated reramsim suite as a hardened
// HTTP daemon: POST /v1/solve answers one (scheme, workload) cell, with
// admission control (per-client token buckets, bounded queue, 429/503
// + Retry-After), per-request deadlines (504), one shared simulation
// for identical in-flight solves, panic isolation, and graceful drain
// on SIGINT/SIGTERM (in-flight solves finish, then exit 0). A client
// that wants a grid sends its cells as concurrent solves. One port
// serves it all: the API beside /healthz, /readyz, /metrics and
// /debug/pprof/. The intake, deadline and drain policy is fixed, not
// flag-set (DESIGN §13).
//
//	reramd -addr localhost:8080 -solve-cache /var/cache/reramsim
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

// drainTimeout bounds how long a signal-initiated drain waits for
// in-flight work before cancelling it.
const drainTimeout = 30 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "localhost:8080", "listen address of the API, /metrics, /healthz, /readyz and /debug/pprof/")
		accesses = flag.Int("accesses", 20000, "memory accesses simulated per core")
		jobsFlag = flag.Int("jobs", 0, "max parallel solves (0 = GOMAXPROCS)")

		solveCacheDir = flag.String("solve-cache", "", "directory for the persistent solve cache (default: disabled); results are identical with or without it")
		traceSpans    = flag.String("trace-spans", "", "write hierarchical spans as a Chrome trace-event file (load in ui.perfetto.dev)")
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
	stack, err := telemetry.StartStack(telemetry.StackOptions{TraceSpans: *traceSpans})
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
		Addr:    *addr,
		Backend: &serve.SuiteBackend{Suite: suite},
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
	fmt.Fprintf(os.Stderr, "reramd: serving on http://%s\n", srv.Addr())

	s := <-sig
	fmt.Fprintf(os.Stderr, "reramd: %v: draining (in-flight solves finish; new requests get 503)\n", s)

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(drainCtx) }()

	select {
	case err := <-drained:
		// The span trace closes after the drain so it holds the drained
		// work. Stack.Close is idempotent — the deferred close becomes a
		// no-op.
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
