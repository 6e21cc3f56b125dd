package xpoint

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"reramsim/internal/obs"
)

// poolConfigs covers the solver variants whose ladders the context pool
// reconfigures differently (ground layout, driver taps, oracle taps).
func poolConfigs() map[string]Config {
	base := DefaultConfig()
	dsgb := base
	dsgb.DSGB = true
	both := dsgb
	both.DSWD = true
	ora := base
	ora.OracleWL = 64
	ora.OracleBL = 128
	return map[string]Config{"base": base, "dsgb": dsgb, "dsgb+dswd": both, "oracle": ora}
}

// poolOps are the ops TestPooledSolveDeterminism solves. Ops 4 and 5 share
// opening bit-line memo keys (row, piece voltage, op maximum) with
// earlier ops but differ in columns or piece count: op 4 shares op 0's
// key and op 3's pieces', op 5 shares two of op 1's. Op 6 shares op 1's
// row and first piece voltage but not its maximum, so it must miss.
func poolOps(cfg Config) []ResetOp {
	v := cfg.Params.Vrst
	return []ResetOp{
		{Row: cfg.Size - 1, Cols: []int{cfg.Size - 1}, Volts: []float64{v}},
		{Row: cfg.Size / 3, Cols: []int{10, 200, 400, 505}, Volts: []float64{v, v + 0.3, v + 0.6, 3.94}},
		{Row: 0, Cols: []int{0}, Volts: []float64{v + 0.66}},
		{Row: cfg.Size - 1, Cols: []int{63, 191, 319, 447}, Volts: []float64{v, v, v, v}},
		{Row: cfg.Size - 1, Cols: []int{100}, Volts: []float64{v}},
		{Row: cfg.Size / 3, Cols: []int{20, 505}, Volts: []float64{v + 0.3, 3.94}},
		{Row: cfg.Size / 3, Cols: []int{10}, Volts: []float64{v}},
	}
}

func sameResult(t *testing.T, label string, got, want *ResetResult) {
	t.Helper()
	if len(got.Veff) != len(want.Veff) || len(got.Icell) != len(want.Icell) {
		t.Fatalf("%s: result shape %d/%d, want %d/%d", label, len(got.Veff), len(got.Icell), len(want.Veff), len(want.Icell))
	}
	for i := range want.Veff {
		if math.Float64bits(got.Veff[i]) != math.Float64bits(want.Veff[i]) {
			t.Errorf("%s: Veff[%d] = %.17g, want %.17g", label, i, got.Veff[i], want.Veff[i])
		}
		if math.Float64bits(got.Icell[i]) != math.Float64bits(want.Icell[i]) {
			t.Errorf("%s: Icell[%d] = %.17g, want %.17g", label, i, got.Icell[i], want.Icell[i])
		}
	}
	if math.Float64bits(got.Itotal) != math.Float64bits(want.Itotal) {
		t.Errorf("%s: Itotal = %.17g, want %.17g", label, got.Itotal, want.Itotal)
	}
	if math.Float64bits(got.Latency) != math.Float64bits(want.Latency) {
		t.Errorf("%s: Latency = %.17g, want %.17g", label, got.Latency, want.Latency)
	}
	if got.Failed != want.Failed {
		t.Errorf("%s: Failed = %v, want %v", label, got.Failed, want.Failed)
	}
}

// TestPooledSolveDeterminism: solving on a warm Array (pooled, previously
// used ladders, opening bit-line solves served from its memo) must be
// bit-identical to solving on a fresh Array, in any op order, and
// SimulateResetInto must match SimulateReset exactly while reusing the
// caller's result slices.
func TestPooledSolveDeterminism(t *testing.T) {
	for name, cfg := range poolConfigs() {
		t.Run(name, func(t *testing.T) {
			ops := poolOps(cfg)

			// References: each op on its own pristine Array.
			want := make([]*ResetResult, len(ops))
			for i, op := range ops {
				res, err := MustNew(cfg).SimulateReset(op)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res
			}

			// One shared Array per starting order, ops interleaved
			// repeatedly: warm pooled contexts and memo hits must not
			// leak any state between solves. Each order starts on a
			// fresh Array, so of two ops sharing a memo key either one
			// may be the one that stores it.
			fwd := make([]int, len(ops))
			rev := make([]int, len(ops))
			for i := range ops {
				fwd[i], rev[i] = i, len(ops)-1-i
			}
			for _, order := range [][]int{fwd, rev} {
				arr := MustNew(cfg)
				var into ResetResult
				for round := 0; round < 3; round++ {
					for _, i := range order {
						res, err := arr.SimulateReset(ops[i])
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, name+" warm", res, want[i])

						if err := arr.SimulateResetInto(ops[i], &into); err != nil {
							t.Fatal(err)
						}
						sameResult(t, name+" into", &into, want[i])
					}
					// Opposite order: different pool checkout pattern.
					for j := len(order) - 1; j >= 0; j-- {
						i := order[j]
						if err := arr.SimulateResetInto(ops[i], &into); err != nil {
							t.Fatal(err)
						}
						sameResult(t, name+" reverse", &into, want[i])
					}
				}
			}
		})
	}
}

// TestBLMemoEviction: past blMemoCap keys the memo evicts its oldest
// entries first. Re-solving evicted and resident keys alike must return
// a pristine Array's bits.
func TestBLMemoEviction(t *testing.T) {
	cfg := DefaultConfig()
	arr := MustNew(cfg)
	row := cfg.Size - 1
	ops := make([]ResetOp, blMemoCap+8)
	for i := range ops {
		ops[i] = oneBit(row, row, cfg.Params.Vrst+0.005*float64(i))
	}
	var res ResetResult
	for _, op := range ops {
		if err := arr.SimulateResetInto(op, &res); err != nil {
			t.Fatal(err)
		}
	}
	scratch := make([]float64, cfg.Size)
	resident := func(op ResetOp) bool {
		return arr.blMemo.load(newBLKey(op.Row, op.Volts[0], op.Volts[0]), scratch)
	}
	evicted, kept := ops[:8], ops[len(ops)-8:]
	for i := range evicted {
		if resident(evicted[i]) {
			t.Fatalf("op %d still in a memo of %d after %d stores", i, blMemoCap, len(ops))
		}
		if !resident(kept[i]) {
			t.Fatalf("op %d evicted while among the %d newest", len(ops)-8+i, blMemoCap)
		}
	}
	for _, op := range append(append([]ResetOp(nil), evicted...), kept...) {
		want, err := MustNew(cfg).SimulateReset(op)
		if err != nil {
			t.Fatal(err)
		}
		if err := arr.SimulateResetInto(op, &res); err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("V=%g", op.Volts[0]), &res, want)
	}
}

// TestResetSteadyStateAllocs: repeating an op whose opening bit-line
// solves are in the Array's memo allocates nothing. A memo that boxed
// its key or copied out through a fresh slice would fail here, not only
// in make bench-guard.
func TestResetSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	cfg := DefaultConfig()
	arr := MustNew(cfg)
	v := cfg.Params.Vrst
	for _, op := range []ResetOp{
		oneBit(cfg.Size-1, cfg.Size-1, v),
		{Row: cfg.Size / 2, Cols: []int{127, 255, 383, 511}, Volts: []float64{v, v + 0.2, v + 0.4, v + 0.6}},
	} {
		var res ResetResult
		if err := arr.SimulateResetInto(op, &res); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := arr.SimulateResetInto(op, &res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%d-bit: repeated SimulateResetInto allocates %.1f/op, want 0", len(op.Cols), allocs)
		}
	}
}

// TestResetWorkCounters: with obs on, re-solving an op on the same Array
// serves each piece's opening bit-line solve from the memo, which the
// bl_memo_hits counter shows and the sweeps counter shows as less work.
func TestResetWorkCounters(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	cfg := DefaultConfig()
	arr := MustNew(cfg)
	v := cfg.Params.Vrst
	op := ResetOp{Row: cfg.Size / 2, Cols: []int{127, 255, 383, 511}, Volts: []float64{v, v + 0.2, v + 0.4, v + 0.6}}
	solve := func() (sweeps, hits uint64) {
		s0, h0 := obsSweeps.Value(), obsMemoHits.Value()
		if _, err := arr.SimulateReset(op); err != nil {
			t.Fatal(err)
		}
		return obsSweeps.Value() - s0, obsMemoHits.Value() - h0
	}
	sweeps1, hits1 := solve()
	sweeps2, hits2 := solve()
	if hits1 != 0 || hits2 != uint64(len(op.Cols)) {
		t.Errorf("bl_memo_hits added %d then %d, want 0 then %d", hits1, hits2, len(op.Cols))
	}
	if sweeps1 == 0 || sweeps2 >= sweeps1 {
		t.Errorf("sweeps: first solve %d, second %d; want the memo-served second solve to run fewer", sweeps1, sweeps2)
	}
}

// TestSimulateResetIntoValidates: the Into entry point rejects bad ops
// like SimulateReset does, leaving the result untouched.
func TestSimulateResetIntoValidates(t *testing.T) {
	arr := MustNew(DefaultConfig())
	var res ResetResult
	if err := arr.SimulateResetInto(ResetOp{Row: -1, Cols: []int{0}, Volts: []float64{3}}, &res); err == nil {
		t.Error("negative row accepted")
	}
	if err := arr.SimulateResetInto(ResetOp{Row: 0, Cols: []int{5, 2}, Volts: []float64{3, 3}}, &res); err == nil {
		t.Error("descending columns accepted")
	}
}

// TestResetOpHammer interleaves 1-bit and 4-bit ops on one fresh Array
// from many goroutines (run under -race in CI): every solve must return
// the same bits as a pristine Array's, proving pooled contexts are fully
// isolated. op1 and op1b share an opening bit-line memo key, so memo
// inserts and hits on that key race too.
func TestResetOpHammer(t *testing.T) {
	cfg := DefaultConfig()
	v := cfg.Params.Vrst
	ops := []ResetOp{
		{Row: cfg.Size - 1, Cols: []int{cfg.Size - 1}, Volts: []float64{v}},                                  // op1
		{Row: cfg.Size / 2, Cols: []int{127, 255, 383, 511}, Volts: []float64{v, v + 0.2, v + 0.4, v + 0.6}}, // op4
		{Row: cfg.Size - 1, Cols: []int{100}, Volts: []float64{v}},                                           // op1b
	}
	wants := make([]*ResetResult, len(ops))
	for i, op := range ops {
		res, err := MustNew(cfg).SimulateReset(op)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = res
	}
	arr := MustNew(cfg)

	const workers = 8
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res ResetResult
			for i := 0; i < iters; i++ {
				op, want := ops[(w+i)%len(ops)], wants[(w+i)%len(ops)]
				if err := arr.SimulateResetInto(op, &res); err != nil {
					errs <- err
					return
				}
				for j := range want.Veff {
					if math.Float64bits(res.Veff[j]) != math.Float64bits(want.Veff[j]) {
						t.Errorf("worker %d iter %d: Veff[%d] = %.17g, want %.17g", w, i, j, res.Veff[j], want.Veff[j])
						return
					}
				}
				if math.Float64bits(res.Itotal) != math.Float64bits(want.Itotal) {
					t.Errorf("worker %d iter %d: Itotal mismatch", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOracleScratchIsolation: the oracle decomposition shares one scratch
// sub-op; results written into a caller result must not alias it.
func TestOracleScratchIsolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OracleWL = 64
	arr := MustNew(cfg)
	v := cfg.Params.Vrst
	op := ResetOp{Row: 100, Cols: []int{50, 150, 250}, Volts: []float64{v, v + 0.1, v + 0.2}}
	a, err := arr.SimulateReset(op)
	if err != nil {
		t.Fatal(err)
	}
	b, err := arr.SimulateReset(op)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "oracle repeat", b, a)
	if &a.Veff[0] == &b.Veff[0] {
		t.Error("two SimulateReset results share a backing array")
	}
}
