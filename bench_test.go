package reramsim

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one Benchmark per experiment, printing the rows the paper
// reports on first run) plus ablation and micro benchmarks for the design
// choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"reramsim/internal/experiments"
	"reramsim/internal/fault"
	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/trace"
	"reramsim/internal/write"
)

// benchAccesses keeps each simulation point sub-second so the full bench
// suite stays minutes-scale. cmd/figures uses longer runs.
const benchAccesses = 1200

var benchSuite = sync.OnceValue(func() *experiments.Suite {
	s, err := experiments.NewSuite(benchAccesses)
	if err != nil {
		panic(err)
	}
	return s
})

var printedExperiments sync.Map

// benchExperiment runs one registered experiment per iteration; the first
// run prints the regenerated rows (the deliverable of the harness).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printedExperiments.LoadOrStore(id, true); !done {
			fmt.Printf("\n%s\n", out)
		}
	}
}

// One benchmark per paper table and figure.

func BenchmarkTableI(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFig1e(b *testing.B)    { benchExperiment(b, "fig1e") }
func BenchmarkFig4(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5b(b *testing.B)    { benchExperiment(b, "fig5b") }
func BenchmarkFig5c(b *testing.B)    { benchExperiment(b, "fig5c") }
func BenchmarkFig5d(b *testing.B)    { benchExperiment(b, "fig5d") }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7b(b *testing.B)    { benchExperiment(b, "fig7b") }
func BenchmarkFig9(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig11a(b *testing.B)   { benchExperiment(b, "fig11a") }
func BenchmarkFig11(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig13(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)    { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)    { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)    { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)    { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)    { benchExperiment(b, "fig20") }
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTableIV(b *testing.B)  { benchExperiment(b, "table4") }

// Beyond-paper extension experiments.

func BenchmarkExtReadMargin(b *testing.B)   { benchExperiment(b, "ext-read") }
func BenchmarkExtEq1Kinetics(b *testing.B)  { benchExperiment(b, "ext-eq1") }
func BenchmarkExtPROptimality(b *testing.B) { benchExperiment(b, "ext-propt") }
func BenchmarkExtFault(b *testing.B)        { benchExperiment(b, "ext-fault") }

// BenchmarkSweepParallel tracks end-to-end sweep wall clock for the
// same scheme x workload grid run serial (-jobs=1) and through the
// worker pool at 4 and 8 jobs. Each iteration builds a fresh suite
// (calibration + schemes + sims), which is what one cold CLI invocation
// pays, so parallel-N against serial is the pool's fan-out win and
// nothing else; on a single core it is ~1.
func BenchmarkSweepParallel(b *testing.B) {
	schemes := []string{"Base", "Hard+Sys", "UDRVR+PR"}
	workloads := []string{"ast_m", "mcf_m", "mil_m", "zeu_m"}
	var pairs []experiments.SimPair
	for _, sc := range schemes {
		for _, w := range workloads {
			pairs = append(pairs, experiments.SimPair{Scheme: sc, Workload: w})
		}
	}
	run := func(b *testing.B, jobs int) {
		par.SetJobs(jobs)
		defer par.SetJobs(0)
		for i := 0; i < b.N; i++ {
			s, err := experiments.NewSuite(benchAccesses)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.PrimeSims(pairs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel-4", func(b *testing.B) { run(b, 4) })
	b.Run("parallel-8", func(b *testing.B) { run(b, 8) })
}

// --- Micro benchmarks -------------------------------------------------

func benchArray(b *testing.B) *Array {
	b.Helper()
	arr, err := NewArray(CalibratedConfig())
	if err != nil {
		b.Fatal(err)
	}
	return arr
}

// BenchmarkResetOp1Bit measures one worst-case 1-bit array solve. After
// the first iteration the op's opening bit-line solve is an Array memo
// hit, so later iterations time the solve without it.
func BenchmarkResetOp1Bit(b *testing.B) {
	arr := benchArray(b)
	op := ResetOp{Row: 511, Cols: []int{511}, Volts: []float64{3.0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arr.SimulateReset(op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResetOp4Bit measures a PR-style 4-bit partitioned solve.
// After the first iteration every piece's opening bit-line solve is an
// Array memo hit (the four equal-voltage pieces share one key).
func BenchmarkResetOp4Bit(b *testing.B) {
	arr := benchArray(b)
	op := ResetOp{
		Row:   511,
		Cols:  []int{127, 255, 383, 511},
		Volts: []float64{3, 3, 3, 3},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arr.SimulateReset(op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResetOpSteadyState guards the zero-allocation solver hot
// path: once the Array's context pool is warm, SimulateResetInto with a
// caller-owned result must not allocate at all — the ladders, scratch
// slices and result slices are all reused, and the opening bit-line
// solve, a memo hit after the warm-up, is copied under the memo's lock.
// The guard fails the benchmark (and make ci) if an allocation sneaks
// back in.
func BenchmarkResetOpSteadyState(b *testing.B) {
	arr := benchArray(b)
	op := ResetOp{Row: 511, Cols: []int{511}, Volts: []float64{3.0}}
	var res ResetResult
	if err := arr.SimulateResetInto(op, &res); err != nil { // warm the pool
		b.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := arr.SimulateResetInto(op, &res); err != nil {
			b.Fatal(err)
		}
	}); avg > 0 {
		b.Fatalf("steady-state SimulateResetInto allocates %.1f times/op, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := arr.SimulateResetInto(op, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// memoizedLineWrite builds the line-write hot path shared by the pricing
// and observability benchmarks: a scheme whose cost table already holds
// every op of lw, so each CostWrite is a table hit.
func memoizedLineWrite(tb testing.TB) (*Scheme, write.LineWrite) {
	tb.Helper()
	s, err := UDRVRPR(CalibratedConfig())
	if err != nil {
		tb.Fatal(err)
	}
	var lw write.LineWrite
	for i := range lw.Arrays {
		lw.Arrays[i] = write.ArrayWrite{Reset: 1 << uint(i%8), Set: 1}
	}
	if _, err := s.CostWrite(context.Background(), 300, 40, lw); err != nil { // warm the table
		tb.Fatal(err)
	}
	return s, lw
}

// memoizedCostWrite is one line write as memsys.submitWrite prices it:
// a CostWrite whose ops the cost table already holds.
func memoizedCostWrite(tb testing.TB, s *Scheme, lw write.LineWrite) {
	if _, err := s.CostWrite(context.Background(), 300, 40, lw); err != nil {
		tb.Fatal(err)
	}
}

// benchCostWrite guards and times the memoized line write: it fails the
// benchmark (and make ci) if one write allocates, then runs b.N of
// them.
func benchCostWrite(b *testing.B, s *Scheme, lw write.LineWrite) {
	if avg := testing.AllocsPerRun(100, func() { memoizedCostWrite(b, s, lw) }); avg > 0 {
		b.Fatalf("memoized CostWrite allocates %.1f times/op (metrics on: %v), want 0", avg, obs.Enabled())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memoizedCostWrite(b, s, lw)
	}
}

// BenchmarkCostWriteMemoized measures the steady-state (table-hit) cost
// of pricing a line write — the hot path of the system simulator. A hit
// is two atomic loads and an index per array op, so pricing a hit must
// not allocate.
func BenchmarkCostWriteMemoized(b *testing.B) {
	s, lw := memoizedLineWrite(b)
	benchCostWrite(b, s, lw)
}

// BenchmarkObsDisabled guards the observability off switch: with the
// registry disabled, each metric touch on the line-write hot path is a
// single atomic load and allocates nothing.
func BenchmarkObsDisabled(b *testing.B) {
	s, lw := memoizedLineWrite(b)
	obs.SetEnabled(false)
	benchCostWrite(b, s, lw)
}

// BenchmarkObsEnabled is the companion measurement with metrics on (no
// trace sink): a memoized write adds its array ops to the cost-table
// hit counter, one atomic add per line, and still allocates nothing.
func BenchmarkObsEnabled(b *testing.B) {
	s, lw := memoizedLineWrite(b)
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	}()
	benchCostWrite(b, s, lw)
}

// TestTimedCostWriteAllocs: with observability on, a memoized line write
// allocates nothing. Resolving a metric by name on every write (name
// concatenation, the registry mutex) or a per-write timing closure would
// fail here.
func TestTimedCostWriteAllocs(t *testing.T) {
	s, lw := memoizedLineWrite(t)
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	}()
	if avg := testing.AllocsPerRun(100, func() { memoizedCostWrite(t, s, lw) }); avg > 0 {
		t.Fatalf("memoized CostWrite allocates %.1f times/op with obs on, want 0", avg)
	}
}

// BenchmarkSpanDisabled guards the span off switch: with no sink
// installed, a span and a child under it on an instrumented hot path
// must be a single atomic load each — zero allocations per op. The
// guard fails the benchmark (and make ci) if the disabled path
// regresses.
func BenchmarkSpanDisabled(b *testing.B) {
	obs.SetSpanSink(nil)
	ctx := context.Background()
	if avg := testing.AllocsPerRun(100, func() { spanPair(ctx) }); avg > 0 {
		b.Fatalf("disabled spans allocate %.1f times/op, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanPair(ctx)
	}
}

// BenchmarkSpanEnabled is the companion measurement with a discarding
// sink installed, quantifying the full cost of two spans (node and
// context allocation, track hand-over, emission).
func BenchmarkSpanEnabled(b *testing.B) {
	obs.SetSpanSink(obs.NopSpanSink{})
	defer obs.SetSpanSink(nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanPair(ctx)
	}
}

// spanPair opens a span and a child under it, then stops both.
func spanPair(ctx context.Context) {
	sctx, stop := obs.StartSpan(ctx, "bench.span")
	_, stopChild := obs.StartSpan(sctx, "bench.child")
	stopChild()
	stop()
}

// BenchmarkMetricsScrape measures one /metrics render — the lock-free
// walk of the registry's sorted view in Prometheus text — over a
// registry populated like a mid-sweep scrape (counters and gauges). It
// guards the render: any allocation per scrape fails the benchmark (and
// make ci).
func BenchmarkMetricsScrape(b *testing.B) {
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	}()
	for i := 0; i < 32; i++ {
		obs.C(fmt.Sprintf("bench.scrape.counter_%d", i)).Add(uint64(i))
		obs.G(fmt.Sprintf("bench.scrape.gauge_%d", i)).Set(float64(i))
	}
	scrape := func() {
		if err := obs.Default().WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, scrape); avg > 0 {
		b.Fatalf("a /metrics render allocates %.1f times/op, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scrape()
	}
}

// BenchmarkFaultDisabled guards the fault-injection off switch: with the
// "none" profile the injector is nil and every fault query on the
// line-write hot path must stay a branch — zero allocations per op, no
// overhead beyond the instrumented CostWrite itself.
func BenchmarkFaultDisabled(b *testing.B) {
	s, lw := memoizedLineWrite(b)
	var inj *fault.Injector // the disabled injector is nil
	obs.SetEnabled(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inj.Enabled() {
			b.Fatal("nil injector reported enabled")
		}
		c, err := s.CostWrite(context.Background(), 300, 40, lw)
		if err != nil {
			b.Fatal(err)
		}
		if dv := inj.Undershoot(0); inj.AttemptFails(0, c.MinMargin-dv, dv > 0) {
			b.Fatal("nil injector failed an attempt")
		}
		if _, stuck := inj.StuckAfterWrite(0, c.Resets); stuck {
			b.Fatal("nil injector stuck a cell")
		}
	}
}

// BenchmarkFlipNWrite measures the data-path reduction of one 64 B write.
func BenchmarkFlipNWrite(b *testing.B) {
	var old, data [write.LineBytes]byte
	for i := range old {
		old[i] = byte(i * 37)
		data[i] = byte(i*37) ^ byte(i%5)
	}
	var lw write.LineWrite
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write.FlipNWrite(&lw, &old, &data)
	}
}

// BenchmarkTraceGen measures workload generation throughput.
func BenchmarkTraceGen(b *testing.B) {
	bench, err := trace.ByName("mcf_m")
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(bench, 1)
	if err != nil {
		b.Fatal(err)
	}
	var a trace.Access
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&a)
	}
}

// BenchmarkSimPoint measures one full system-simulation point.
func BenchmarkSimPoint(b *testing.B) {
	s, err := UDRVRPR(CalibratedConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := Simulate(s, "mcf_m", 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "IPC")
	}
}

// --- Ablation benchmarks (DESIGN.md §6) --------------------------------

// BenchmarkAblationDRVRLevels sweeps the DRVR section count: more levels
// tighten the per-section voltage spread at the cost of a bigger VRA.
func BenchmarkAblationDRVRLevels(b *testing.B) {
	cfg := CalibratedConfig()
	for _, sections := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("sections=%d", sections), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := NewScheme(fmt.Sprintf("drvr-%d", sections), SchemeOptions{
					Array: cfg, DRVR: true, DRVRSections: sections,
				})
				if err != nil {
					b.Fatal(err)
				}
				wc, err := s.WorstWriteCost()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(wc.ResetLatency*1e9, "worst-rst-ns")
				b.ReportMetric(s.Levels().Max(), "max-level-V")
			}
		})
	}
}

// BenchmarkAblationPRGroups sweeps Algorithm 1's group width: 1-bit
// groups over-partition (D-BL-like current), 4-bit groups under-partition.
func BenchmarkAblationPRGroups(b *testing.B) {
	arr := benchArray(b)
	cfg := arr.Config()
	for _, group := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("group=%d", group), func(b *testing.B) {
			aw := write.PartitionResetGroups(write.ArrayWrite{Reset: 1 << 7}, group)
			var cols []int
			var volts []float64
			for bit := 0; bit < 8; bit++ {
				if aw.Reset&(1<<bit) != 0 {
					cols = append(cols, cfg.ColumnOfBit(bit, 63))
					volts = append(volts, 3.0)
				}
			}
			op := ResetOp{Row: 511, Cols: cols, Volts: volts}
			for i := 0; i < b.N; i++ {
				res, err := arr.SimulateReset(op)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Latency*1e9, "op-rst-ns")
				b.ReportMetric(float64(len(cols)), "concurrent-resets")
			}
		})
	}
}

// BenchmarkAblationLUT compares the canonicalised RESET cost table
// against exact per-mask solving: accuracy vs table size and speed.
func BenchmarkAblationLUT(b *testing.B) {
	cfg := CalibratedConfig()
	for _, exact := range []bool{false, true} {
		b.Run(fmt.Sprintf("exact=%v", exact), func(b *testing.B) {
			s, err := NewScheme("lut", SchemeOptions{Array: cfg, DRVR: true, UDRVR: true, PR: true, ExactMasks: exact})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := Simulate(s, "ast_m", 600)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.IPC, "IPC")
			}
			b.ReportMetric(float64(s.MemoSize()), "table-entries")
		})
	}
}

// BenchmarkAblationSolver compares the fast ladder model against the full
// 2-D nonlinear solver on the largest array the latter handles quickly.
func BenchmarkAblationSolver(b *testing.B) {
	cfg := CalibratedConfig()
	cfg.Size = 64
	b.Run("ladder", func(b *testing.B) {
		arr, err := NewArray(cfg)
		if err != nil {
			b.Fatal(err)
		}
		op := ResetOp{Row: 63, Cols: []int{63}, Volts: []float64{3.0}}
		for i := 0; i < b.N; i++ {
			res, err := arr.SimulateReset(op)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Veff[0], "worst-veff-V")
		}
	})
	b.Run("full2d", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			veff, err := fullSolverWorstCase(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(veff, "worst-veff-V")
		}
	})
}

// BenchmarkAblationFNW quantifies what Flip-N-Write buys: cells written
// per line with and without it.
func BenchmarkAblationFNW(b *testing.B) {
	bench, err := trace.ByName("zeu_m")
	if err != nil {
		b.Fatal(err)
	}
	for _, fnw := range []bool{true, false} {
		b.Run(fmt.Sprintf("fnw=%v", fnw), func(b *testing.B) {
			g, err := trace.NewGenerator(bench, 1)
			if err != nil {
				b.Fatal(err)
			}
			var cells, writes float64
			var a trace.Access
			var lw write.LineWrite
			for i := 0; i < b.N; i++ {
				g.Next(&a)
				if a.Kind != trace.Write {
					continue
				}
				if fnw {
					write.FlipNWrite(&lw, &a.Old, &a.New)
				} else {
					write.RawWrite(&lw, &a.Old, &a.New)
				}
				r, s := lw.Totals()
				cells += float64(r + s)
				writes++
			}
			if writes > 0 {
				b.ReportMetric(cells/writes, "cells/write")
			}
		})
	}
}

// BenchmarkAblationCellModel compares the default compliance-limited cell
// against the ohmic-plus-selector composite in the 1-bit worst case: the
// choice drives how much IR drop the model predicts (DESIGN.md §3).
func BenchmarkAblationCellModel(b *testing.B) {
	base := CalibratedConfig()
	base.Size = 128
	b.Run("saturating", func(b *testing.B) {
		arr, err := NewArray(base)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			res, err := arr.SimulateReset(ResetOp{Row: 127, Cols: []int{127}, Volts: []float64{3.0}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Veff[0], "worst-veff-V")
		}
	})
	b.Run("composite", func(b *testing.B) {
		veff, err := compositeWorstCase(base)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			b.ReportMetric(veff, "worst-veff-V")
		}
	})
}

// fullSolverWorstCase and compositeWorstCase are implemented in
// helpers_test.go (they reach below the facade into the reference
// solver and the alternative device model).

// BenchmarkAblationWritePolicy compares the paper's read-first write
// scheduling (writes drain only when no read is pending, bursting when
// the queue fills) against eagerly issuing writes whenever a bank is
// free. With many banks the eager policy can win on read-heavy loads:
// read-first lets writes pile up until a burst blocks every read at
// once, while eager draining spreads the occupancy across idle banks.
func BenchmarkAblationWritePolicy(b *testing.B) {
	s, err := Baseline(CalibratedConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, eager := range []bool{false, true} {
		b.Run(fmt.Sprintf("eager=%v", eager), func(b *testing.B) {
			bench, err := BenchmarkByName("tig_m")
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultSimConfig()
			cfg.AccessesPerCore = 1200
			cfg.EagerWrites = eager
			for i := 0; i < b.N; i++ {
				res, err := SimulateConfig(s, bench, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.IPC, "IPC")
				b.ReportMetric(res.AvgReadLatency*1e9, "read-ns")
			}
		})
	}
}
