// Command reramsim runs memory-system simulations: voltage-drop
// mitigation schemes against Table IV workloads, reporting IPC, latency
// and energy.
//
// Usage:
//
//	reramsim -scheme UDRVR+PR -workload mcf_m -accesses 20000
//	reramsim -scheme Base,UDRVR+PR -workload mcf_m,mil_m -json
//	reramsim -scheme UDRVR+PR -workload mcf_m -metrics
//	reramsim -list
//
// Sweeps: comma-separated -scheme/-workload lists run the full cross
// product. With -checkpoint-dir the sweep is crash-safe — every
// finished cell is journaled, and -resume <dir> continues a killed run,
// skipping journaled cells with byte-identical final output. Exit codes
// follow the jobs contract: 0 complete, 3 partial (quarantined cells),
// 130 interrupted (SIGINT/SIGTERM).
//
// Observability: -metrics dumps the metric registry after the run
// (Prometheus-style text, or JSON with -metrics-format json), -obs-addr
// serves the live telemetry plane (/metrics, /healthz, /readyz,
// /progress and /debug/pprof/ on one address with graceful shutdown),
// and -trace-spans records hierarchical spans as a Chrome trace-event
// file for Perfetto.
package main

import (
	"context"
	"encoding/json"
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
	"reramsim/internal/fault"
	"reramsim/internal/jobs"
	"reramsim/internal/memsys"
	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/solvecache"
	"reramsim/internal/telemetry"
	"reramsim/internal/wear"
)

// cleanup writes the solve cache's pending memo dumps and tears the
// observability stack down before the process exits; os.Exit skips
// deferred calls, so every exit path routes through it (it is
// idempotent). Installed in main once the stack is up.
var cleanup = func() {}

func main() {
	var (
		scheme   = flag.String("scheme", "UDRVR+PR", "scheme name, or comma-separated list for a sweep (see -list)")
		workload = flag.String("workload", "mcf_m", "Table IV workload, or comma-separated list for a sweep (see -list)")
		accesses = flag.Int("accesses", 20000, "memory accesses simulated per core")
		caches   = flag.Bool("caches", false, "route the address stream through L1/L2/L3 caches")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		lifetime = flag.Bool("lifetime", false, "also estimate the Fig. 5b system lifetime")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON")
		list     = flag.Bool("list", false, "list schemes and workloads, then exit")

		faultProfile = flag.String("fault-profile", "none", "fault-injection profile: "+strings.Join(fault.Profiles(), ", "))
		faultSeed    = flag.Int64("fault-seed", 0, "fault generator seed (0 reuses -seed)")
		maxRetries   = flag.Int("max-write-retries", 3, "write-verify retries before a cell is declared stuck")

		jobsFlag = flag.Int("jobs", 0, "max parallel simulations/solves (0 = GOMAXPROCS); output is identical at any setting")

		checkpointDir = flag.String("checkpoint-dir", "", "journal sweep cells to this directory (crash-safe; cold start)")
		resumeDir     = flag.String("resume", "", "resume a journaled sweep from this checkpoint directory, skipping finished cells; without -solve-cache on both runs, RESET ops the killed run priced are solved again")
		cellTimeout   = flag.Duration("cell-timeout", 0, "per-cell deadline in a sweep (0 = none); an exceeded cell is quarantined, not fatal")

		solveCacheDir = flag.String("solve-cache", "", "directory for the persistent solve cache (default: disabled); results are identical with or without it")

		metrics    = flag.Bool("metrics", false, "dump the metric registry after the run")
		metricsFmt = flag.String("metrics-format", "text", "metrics dump format: text (Prometheus-style) or json")
		obsAddr    = flag.String("obs-addr", "", "serve live telemetry (/metrics, /healthz, /readyz, /progress, /debug/pprof/) on this address (e.g. localhost:6060)")
		traceSpans = flag.String("trace-spans", "", "write hierarchical spans as a Chrome trace-event file (load in ui.perfetto.dev)")
	)
	flag.Parse()

	if *list {
		fmt.Println("schemes:  ", strings.Join(experiments.SchemeNames(), ", "))
		fmt.Println("workloads:", strings.Join(experiments.Workloads(), ", "))
		return
	}
	schemes := splitList(*scheme)
	workloads := splitList(*workload)
	if len(schemes) == 0 || len(workloads) == 0 {
		fail(fmt.Errorf("empty -scheme or -workload"))
	}
	for _, s := range schemes {
		validateName("scheme", s, experiments.SchemeNames())
	}
	for _, w := range workloads {
		validateName("workload", w, experiments.Workloads())
	}
	validateName("fault-profile", *faultProfile, fault.Profiles())
	if *checkpointDir != "" && *resumeDir != "" {
		fail(fmt.Errorf("-checkpoint-dir and -resume are mutually exclusive (resume implies the checkpoint dir)"))
	}
	if *maxRetries < 0 {
		fail(fmt.Errorf("negative -max-write-retries %d", *maxRetries))
	}
	if *metricsFmt != "text" && *metricsFmt != "json" {
		fail(fmt.Errorf("unknown -metrics-format %q (want text or json)", *metricsFmt))
	}
	par.SetJobs(*jobsFlag)
	if *solveCacheDir != "" {
		sc, err := solvecache.Open(*solveCacheDir)
		if err != nil {
			fail(fmt.Errorf("-solve-cache: %w", err))
		}
		core.SetSolveCache(sc)
	}
	if *metrics || *obsAddr != "" { // the dump or /metrics reads the registry
		obs.SetEnabled(true)
	}
	stack, err := telemetry.StartStack(telemetry.StackOptions{Addr: *obsAddr, TraceSpans: *traceSpans})
	if err != nil {
		fail(err)
	}
	var suite *experiments.Suite // set once calibrated
	cleanup = func() {
		if suite != nil {
			suite.FlushSolveCache() // ops priced outside a simulation, on any exit
		}
		if err := stack.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "reramsim:", err)
		}
	}
	defer cleanup()

	// SIGINT/SIGTERM cancel the suite's context with a typed cause: a
	// running simulation stops inside its event loop, the suite returns
	// what it has (every finished sweep cell is already journaled), and
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
	suite.MemCfg.UseCaches = *caches
	suite.MemCfg.Seed = *seed
	suite.MemCfg.FaultProfile = *faultProfile
	suite.MemCfg.FaultSeed = *faultSeed
	suite.MemCfg.MaxWriteRetries = *maxRetries
	stack.SetReady(true) // suite calibrated: work can be admitted

	if len(schemes) > 1 || len(workloads) > 1 || *checkpointDir != "" || *resumeDir != "" {
		code := runSweep(ctx, suite, schemes, workloads, sweepOptions{
			checkpointDir: *checkpointDir,
			resumeDir:     *resumeDir,
			cellTimeout:   *cellTimeout,
			jsonOut:       *jsonOut,
			stack:         stack,
		})
		dumpMetrics(*metrics, *metricsFmt)
		cleanup()
		os.Exit(code)
	}

	sc, err := suite.Scheme(schemes[0])
	if err != nil {
		fail(err)
	}
	res, err := suite.Sim(schemes[0], workloads[0])
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "reramsim: interrupted")
			cleanup()
			os.Exit(jobs.ExitInterrupted)
		}
		fail(err)
	}
	var years float64
	if *lifetime {
		if years, err = wear.Lifetime(sc, wear.DefaultLifetimeParams()); err != nil {
			fail(err)
		}
		// The estimate prices ops outside the simulation: write them
		// now, so -metrics counts every solve-cache write.
		suite.FlushSolveCache()
	}

	if *jsonOut {
		out := map[string]any{
			"scheme":            sc.Name(),
			"workload":          res.Workload,
			"ipc":               res.IPC,
			"reads":             res.Reads,
			"writes":            res.Writes,
			"avgReadLatencySec": res.AvgReadLatency,
			"avgWriteWaitSec":   res.AvgWriteWait,
			"writeBursts":       res.WriteBursts,
			"cellsWritten":      res.CellsWritten,
			"writeFailures":     res.WriteFailures,
			"energyJ": map[string]float64{
				"read": res.Energy.Read, "write": res.Energy.Write,
				"leakage": res.Energy.Leakage, "pump": res.Energy.Pump,
				"total": res.Energy.Total(),
			},
		}
		if res.Reliability != nil {
			out["reliability"] = res.Reliability
		}
		if *lifetime {
			out["lifetimeYears"] = years
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
		dumpMetrics(*metrics, *metricsFmt)
		return
	}

	fmt.Printf("scheme      %s (pump %.2f V, %d stage(s))\n", sc.Name(), sc.Pump().Vout, sc.Pump().Stages)
	fmt.Printf("workload    %s\n", res.Workload)
	fmt.Printf("IPC         %.3f (aggregate, %d cores)\n", res.IPC, suite.MemCfg.Cores)
	fmt.Printf("reads       %d (avg latency %.0f ns)\n", res.Reads, res.AvgReadLatency*1e9)
	fmt.Printf("writes      %d (avg wait %.0f ns, %d bursts, %d cells)\n",
		res.Writes, res.AvgWriteWait*1e9, res.WriteBursts, res.CellsWritten)
	e := res.Energy
	fmt.Printf("energy      %.3g J (read %.3g, write %.3g, leakage %.3g, pump %.3g)\n",
		e.Total(), e.Read, e.Write, e.Leakage, e.Pump)
	if res.WriteFailures > 0 {
		fmt.Printf("WARNING     %d write failures (effective Vrst below threshold)\n", res.WriteFailures)
	}
	if rel := res.Reliability; rel != nil {
		fmt.Printf("faults      profile %s: %d retries (%d verify failures, max escalation %d, %.3g J)\n",
			rel.Profile, rel.WriteRetries, rel.VerifyFailures, rel.MaxEscalation, rel.RetryEnergy)
		fmt.Printf("degradation %d stuck cells, %d retired lines, %d uncorrectable\n",
			rel.StuckCells, rel.RetiredLines, rel.Uncorrectable)
	}

	if *lifetime {
		fmt.Printf("lifetime    %.2f years under worst-case non-stop writes\n", years)
	}
	dumpMetrics(*metrics, *metricsFmt)
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

type sweepOptions struct {
	checkpointDir string
	resumeDir     string
	cellTimeout   time.Duration
	jsonOut       bool
	stack         *telemetry.Stack
}

// runSweep executes the schemes x workloads grid through the crash-safe
// jobs engine and renders the cells in grid order — from the journal
// payloads, so a resumed run's output is byte-identical to an
// uninterrupted one and quarantined cells are never silently re-run.
// The returned exit code follows the jobs contract.
func runSweep(ctx context.Context, suite *experiments.Suite, schemes, workloads []string, o sweepOptions) int {
	pairs := make([]experiments.SimPair, 0, len(schemes)*len(workloads))
	for _, sc := range schemes {
		for _, w := range workloads {
			pairs = append(pairs, experiments.SimPair{Scheme: sc, Workload: w})
		}
	}
	digest, err := suite.GridDigest(pairs)
	if err != nil {
		fail(err)
	}
	dir, resume := o.checkpointDir, false
	if o.resumeDir != "" {
		dir, resume = o.resumeDir, true
	}
	eng, err := jobs.Open(jobs.Options{
		Dir:          dir,
		Resume:       resume,
		Digest:       digest,
		CellTimeout:  o.cellTimeout,
		TestPanicKey: os.Getenv("RERAMSIM_PANIC_CELL"),
	})
	if err != nil {
		fail(err)
	}
	o.stack.SetProgress(eng.Progress)
	rep, runErr := suite.RunGridContext(ctx, eng, pairs)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "reramsim:", runErr)
		if rep == nil {
			return 1
		}
		return rep.ExitCode(runErr)
	}
	quar := make(map[string]jobs.CellFailure, len(rep.Quarantined))
	for _, q := range rep.Quarantined {
		quar[q.Key] = q
	}

	if o.jsonOut {
		type quarOut struct {
			Reason string `json:"reason"`
			Error  string `json:"error"`
		}
		type cellOut struct {
			Scheme      string          `json:"scheme"`
			Workload    string          `json:"workload"`
			Result      json.RawMessage `json:"result,omitempty"`
			Quarantined *quarOut        `json:"quarantined,omitempty"`
		}
		cells := make([]cellOut, 0, len(pairs))
		for _, p := range pairs {
			key := p.Scheme + "/" + p.Workload
			c := cellOut{Scheme: p.Scheme, Workload: p.Workload}
			if payload, ok := rep.Done[key]; ok {
				c.Result = json.RawMessage(payload)
			} else if q, ok := quar[key]; ok {
				c.Quarantined = &quarOut{Reason: q.Reason, Error: q.Err.Error()}
			}
			cells = append(cells, c)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"cells": cells}); err != nil {
			fail(err)
		}
	} else {
		fmt.Printf("%-14s %-10s %8s %9s %9s %12s\n", "scheme", "workload", "IPC", "reads", "writes", "energy(J)")
		for _, p := range pairs {
			key := p.Scheme + "/" + p.Workload
			if payload, ok := rep.Done[key]; ok {
				var r memsys.Result
				if err := json.Unmarshal(payload, &r); err != nil {
					fail(fmt.Errorf("decoding cell %s: %w", key, err))
				}
				fmt.Printf("%-14s %-10s %8.3f %9d %9d %12.4g\n",
					p.Scheme, p.Workload, r.IPC, r.Reads, r.Writes, r.Energy.Total())
			} else if q, ok := quar[key]; ok {
				fmt.Printf("%-14s %-10s QUARANTINED (%s)\n", p.Scheme, p.Workload, q.Reason)
			}
		}
	}
	for _, q := range rep.Quarantined {
		fmt.Fprintf(os.Stderr, "reramsim: quarantined %s (%s): %v\n", q.Key, q.Reason, q.Err)
	}
	return rep.ExitCode(nil)
}

// validateName exits with a "did you mean ...?" error when name is not
// one of the valid choices.
func validateName(kind, name string, valid []string) {
	for _, v := range valid {
		if v == name {
			return
		}
	}
	fmt.Fprintf(os.Stderr, "reramsim: unknown %s %q\n", kind, name)
	if sugg := experiments.Suggest(name, valid); len(sugg) > 0 {
		fmt.Fprintf(os.Stderr, "did you mean %s?\n", strings.Join(sugg, ", "))
	} else {
		fmt.Fprintf(os.Stderr, "valid %ss: %s\n", kind, strings.Join(valid, ", "))
	}
	os.Exit(2)
}

// dumpMetrics prints the registry after the run when -metrics is given,
// with one fresh sample of the runtime.* series (without -obs-addr
// nothing else samples them).
func dumpMetrics(enabled bool, format string) {
	if !enabled {
		return
	}
	obs.CollectRuntime()
	snap := obs.Default().Snapshot()
	var err error
	if format == "json" {
		err = snap.WriteJSON(os.Stdout)
	} else {
		err = snap.WriteText(os.Stdout)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reramsim:", err)
	cleanup()
	os.Exit(1)
}
