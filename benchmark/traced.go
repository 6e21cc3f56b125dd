package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"reramsim/internal/core"
	"reramsim/internal/experiments"
	"reramsim/internal/jobs"
	"reramsim/internal/memsys"
	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/solvecache"
	"reramsim/internal/xpoint"
)

// schemeSlugs names the core.build_ms metric of each scheme of G.
var schemeSlugs = map[string]string{"Base": "base", "Hard+Sys": "hard_sys", "UDRVR+PR": "udrvr_pr"}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// traced is the per-layer run. It calls each layer's public functions
// in-process, serially unless a step says otherwise, with a span around
// every call. README.md lists the functions it calls.
func (b *bench) traced(ctx context.Context, traceID string) (*section, []span, error) {
	rec := newRecorder(traceID)
	sec := &section{Name: "traced"}
	defer par.SetJobs(0)
	defer obs.SetEnabled(false)
	defer core.SetSolveCache(nil)
	_, err := rec.do(0, "traced", traceID, func(root int) error {
		l := layerRun{b: b, ctx: ctx, rec: rec, root: root, sec: sec}
		for _, step := range []func() error{l.xpoint, l.builds, l.pricing, l.engines, l.warmEventLoop, l.serve} {
			if err := step(); err != nil {
				return err
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sec.add("trace.overhead_pct", 100*(l.tracedCold-l.untracedCold)/l.untracedCold, "%")
		return nil
	})
	// An attempt is one call into a layer. A failed call ends the run
	// with an error, so a finished run has none failed.
	spans := rec.snapshot()
	sec.Samples, sec.attempted = len(spans), len(spans)
	return sec, spans, err
}

// layerRun carries the traced run's state between its steps.
type layerRun struct {
	b    *bench
	ctx  context.Context
	rec  *recorder
	root int
	sec  *section

	cfg xpoint.Config
	// tracedCold and untracedCold are the serial cold grid pass with a
	// span per call and with one span around the whole pass (seconds).
	tracedCold, untracedCold float64
}

func (l *layerRun) mem(accesses int, profile string) memsys.Config {
	return memConfig(accesses, l.b.seed, profile)
}

// xpoint times Eq. 1 calibration and a fixed set of array solves.
func (l *layerRun) xpoint() error {
	var cal []float64
	for i := 0; i < 3; i++ {
		d, err := l.rec.do(l.root, "xpoint.CalibrateLatency", "", func(int) error {
			cfg := xpoint.DefaultConfig()
			p, err := xpoint.CalibrateLatency(cfg, xpoint.BestCaseLatency, xpoint.WorstCaseLatency)
			cfg.Params = p
			l.cfg = cfg
			return err
		})
		if err != nil {
			return err
		}
		cal = append(cal, ms(d))
	}
	l.sec.add("xpoint.calibrate_ms", median(cal), "ms")

	arr, err := xpoint.New(l.cfg)
	if err != nil {
		return err
	}
	var res xpoint.ResetResult
	var us []float64
	// Pass 0 warms the array's solve pool and is not counted.
	for pass := 0; pass <= l.b.size.solveReps; pass++ {
		for _, op := range solveOps(l.cfg) {
			d, err := l.rec.do(l.root, "xpoint.Array.SimulateResetInto", fmt.Sprintf("row %d, %d bit(s)", op.Row, len(op.Cols)),
				func(int) error { return arr.SimulateResetInto(op, &res) })
			if err != nil {
				return err
			}
			if pass > 0 {
				us = append(us, float64(d)/1e3)
			}
		}
	}
	l.sec.add("xpoint.solve_us.p50", median(us), "us")
	return nil
}

// solveOps is the fixed op set: rows 127/255/383/511 x 1/2/4/8 bits at
// the last mux offset, 3.0 V. The k bits are spread evenly from the top
// multiplexer down, the layout Partition RESET produces.
func solveOps(cfg xpoint.Config) []xpoint.ResetOp {
	var ops []xpoint.ResetOp
	last := cfg.MuxWidth() - 1
	for _, row := range []int{127, 255, 383, 511} {
		for _, k := range []int{1, 2, 4, 8} {
			op := xpoint.ResetOp{Row: row}
			for i := k - 1; i >= 0; i-- {
				bit := cfg.DataWidth - 1 - i*cfg.DataWidth/k
				op.Cols = append(op.Cols, cfg.ColumnOfBit(bit, last))
				op.Volts = append(op.Volts, 3.0)
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// buildSchemes builds G's schemes in suite, one span each, and returns
// the build times by scheme.
func (l *layerRun) buildSchemes(parent int, suite *experiments.Suite) (map[string]time.Duration, error) {
	times := make(map[string]time.Duration)
	for _, name := range gridSchemes {
		d, err := l.rec.do(parent, "experiments.Suite.Scheme", name, func(int) error {
			_, err := suite.Scheme(name)
			return err
		})
		if err != nil {
			return nil, err
		}
		times[name] = d
	}
	return times, nil
}

func memoSize(suite *experiments.Suite) (int, error) {
	n := 0
	for _, name := range gridSchemes {
		sc, err := suite.Scheme(name)
		if err != nil {
			return 0, err
		}
		n += sc.MemoSize()
	}
	return n, nil
}

// builds times scheme construction and level calibration on a fresh
// suite, and counts the memo entries a build leaves behind.
func (l *layerRun) builds() error {
	suite, err := newSuite(l.mem(l.b.size.accesses, "none"))
	if err != nil {
		return err
	}
	times, err := l.buildSchemes(l.root, suite)
	if err != nil {
		return err
	}
	for _, name := range gridSchemes {
		l.sec.add("core.build_ms."+schemeSlugs[name], ms(times[name]), "ms")
	}
	n, err := memoSize(suite)
	l.sec.add("core.build_memo_entries", float64(n), "count")
	return err
}

// pricing runs every cell of G cold and then warm on one fresh suite, for
// clean writes and under the margin fault profile. The warm run hits the
// memo on every op, so cold - warm is the time spent pricing new RESET
// ops, and the memo's growth is the number of solves.
func (l *layerRun) pricing() error {
	for _, profile := range []string{"none", "margin"} {
		var solves int
		var price float64
		var retries uint64
		_, err := l.rec.do(l.root, "pass.cold_then_warm", profile, func(pass int) error {
			suite, err := newSuite(l.mem(l.b.size.accesses, profile))
			if err != nil {
				return err
			}
			builds, err := l.buildSchemes(pass, suite)
			if err != nil {
				return err
			}
			for _, d := range builds {
				if profile == "none" { // the clean pass doubles as the traced half of trace.overhead_pct
					l.tracedCold += d.Seconds()
				}
			}
			for _, c := range gridCells() {
				sc, err := suite.Scheme(c.Scheme)
				if err != nil {
					return err
				}
				before := sc.MemoSize()
				var r *memsys.Result
				cold, err := l.rec.do(pass, "memsys.Simulate/cold", cellKey(c), func(int) (err error) {
					r, err = simulateCell(suite, c)
					return err
				})
				if err != nil {
					return err
				}
				warm, err := l.rec.do(pass, "memsys.Simulate/warm", cellKey(c), func(int) error {
					_, err := simulateCell(suite, c)
					return err
				})
				if err != nil {
					return err
				}
				solves += sc.MemoSize() - before
				price += (cold - warm).Seconds()
				if profile == "none" {
					l.tracedCold += cold.Seconds()
				}
				if r.Reliability != nil {
					retries += r.Reliability.WriteRetries
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if profile == "none" {
			l.sec.add("core.cold_solves", float64(solves), "count")
			l.sec.add("core.price_cold_s", price, "s")
			l.sec.add("core.solve_ms", 1e3*price/float64(max(solves, 1)), "ms")
		} else {
			l.sec.add("core.cold_solves_faults", float64(solves), "count")
			l.sec.add("core.price_cold_s_faults", price, "s")
			l.sec.add("memsys.write_retries", float64(retries), "count")
		}
	}
	return nil
}

// prime runs one cold PrimeSims of G on a fresh suite under the given
// worker bound, with one span around the whole pass, and returns the
// suite (every cell cached) and the pass time.
func (l *layerRun) prime(detail string, jobsBound int, mem memsys.Config) (*experiments.Suite, time.Duration, error) {
	suite, err := newSuite(mem)
	if err != nil {
		return nil, 0, err
	}
	par.SetJobs(jobsBound)
	defer par.SetJobs(0)
	d, err := l.rec.do(l.root, "experiments.Suite.PrimeSims", detail, func(int) error {
		return suite.PrimeSims(gridCells())
	})
	return suite, d, err
}

// engines times the cold grid under the machinery around the simulator:
// the par pool (1 vs nproc workers), obs metrics on vs off, the solve
// cache (fill, then load) and the jobs engine's journal.
func (l *layerRun) engines() error {
	mem := l.mem(l.b.size.accesses, "none")
	_, serial, err := l.prime("jobs=1", 1, mem)
	if err != nil {
		return err
	}
	l.untracedCold = serial.Seconds()
	parallel, parWall, err := l.prime(fmt.Sprintf("jobs=%d", l.b.jobs), l.b.jobs, mem)
	if err != nil {
		return err
	}
	l.sec.add("par.speedup", serial.Seconds()/parWall.Seconds(), "x")

	obs.SetEnabled(true)
	_, obsWall, err := l.prime(fmt.Sprintf("jobs=%d, obs on", l.b.jobs), l.b.jobs, mem)
	obs.SetEnabled(false)
	obs.Default().ResetValues()
	if err != nil {
		return err
	}
	l.sec.add("obs.on_off_ratio", obsWall.Seconds()/parWall.Seconds(), "x")

	cache, err := solvecache.Open(filepath.Join(l.b.scratch, "traced-solvecache"))
	if err != nil {
		return err
	}
	core.SetSolveCache(cache)
	_, fill, err := l.prime("jobs=1, filling a solve cache", 1, mem)
	if err != nil {
		return err
	}
	l.sec.add("solvecache.fill_s", fill.Seconds()-serial.Seconds(), "s")
	loaded, err := newSuite(mem)
	if err != nil {
		return err
	}
	load, err := l.rec.do(l.root, "pass.build_from_cache", "", func(pass int) error {
		_, err := l.buildSchemes(pass, loaded)
		return err
	})
	core.SetSolveCache(nil)
	if err != nil {
		return err
	}
	l.sec.add("solvecache.load_ms", ms(load), "ms")

	cells := gridCells()
	digest, err := parallel.GridDigest(cells)
	if err != nil {
		return err
	}
	eng, err := jobs.Open(jobs.Options{Dir: filepath.Join(l.b.scratch, "traced-journal"), Digest: digest})
	if err != nil {
		return err
	}
	var rep *jobs.Report
	grid, err := l.rec.do(l.root, "experiments.Suite.RunGridContext", "cached cells", func(int) (err error) {
		rep, err = parallel.RunGridContext(l.ctx, eng, cells)
		return err
	})
	if err != nil {
		return err
	}
	if !rep.Complete() {
		return fmt.Errorf("jobs engine quarantined %d cell(s)", len(rep.Quarantined))
	}
	l.sec.add("jobs.ms_per_cell", ms(grid)/float64(len(cells)), "ms")
	return nil
}

// warmEventLoop times the memsys event loop alone: G at the sweep_warm
// access count, re-simulated after PrimeSims has priced every op.
func (l *layerRun) warmEventLoop() error {
	suite, _, err := l.prime(fmt.Sprintf("jobs=%d, pricing every op", l.b.jobs), l.b.jobs, l.mem(l.b.size.warmAccesses, "none"))
	if err != nil {
		return err
	}
	var accesses uint64
	d, err := l.rec.do(l.root, "pass.warm", "", func(pass int) error {
		for _, c := range gridCells() {
			var r *memsys.Result
			_, err := l.rec.do(pass, "memsys.Simulate/warm", cellKey(c), func(int) (err error) {
				r, err = simulateCell(suite, c)
				return err
			})
			if err != nil {
				return err
			}
			accesses += r.Reads + r.Writes
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.sec.add("memsys.warm_s", d.Seconds(), "s")
	l.sec.add("memsys.ns_per_access", float64(d)/float64(accesses), "ns")
	l.sec.add("memsys.accesses", float64(accesses), "count")
	return nil
}

// serve times /v1/solve for answers reramd has already computed: one
// session serves the first keys of the served order, then one client asks
// for each of them again.
func (l *layerRun) serve() error {
	d, _, err := startDaemon(l.ctx, filepath.Join(l.b.bin, "reramd"), l.b.daemonArgs()...)
	if err != nil {
		return err
	}
	keys := servedOrders(l.b.seed, l.b.size.cachedKeys)()
	var lat []float64
	_, err = l.rec.do(l.root, "serve.session", "", func(int) error {
		first, _ := solveAll(l.ctx, d.addr, keys, l.b.jobs)
		again, _ := solveAll(l.ctx, d.addr, keys, 1)
		for _, r := range append(first, again...) {
			if r.err != nil {
				return r.err
			}
		}
		for _, r := range again {
			lat = append(lat, ms(r.latency))
		}
		return nil
	})
	_, stopErr := d.stop()
	if err = errors.Join(err, stopErr); err != nil {
		return err
	}
	l.sec.add("serve.cached_ms.p50", median(lat), "ms")
	return nil
}
