package xpoint

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"reramsim/internal/par"
)

func TestEffectiveVrstMapTrends(t *testing.T) {
	cfg := smallConfig()
	arr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := arr.EffectiveVrstMap(context.Background(), 8, SingleBitOp(ConstVolts(3.0)))
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4b: effective Vrst decreases from the bottom-left corner to
	// the top-right corner, monotone along each row and column of blocks.
	for i := 0; i < 8; i++ {
		for j := 1; j < 8; j++ {
			if m.Values[i][j] >= m.Values[i][j-1] {
				t.Fatalf("Veff not decreasing along WL at block (%d,%d)", i, j)
			}
			if m.Values[j][i] >= m.Values[j-1][i] {
				t.Fatalf("Veff not decreasing along BL at block (%d,%d)", j, i)
			}
		}
	}
	if m.Min() != m.Values[7][7] || m.Max() != m.Values[0][0] {
		t.Error("extremes must sit at the far and near corners")
	}
}

func TestLatencyAndEnduranceMapsConsistent(t *testing.T) {
	cfg := smallConfig()
	arr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	op := SingleBitOp(ConstVolts(3.0))
	lat, err := arr.LatencyMap(context.Background(), 4, op)
	if err != nil {
		t.Fatal(err)
	}
	end, err := arr.EnduranceMap(context.Background(), 4, op)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Params
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := p.Endurance(lat.Values[i][j])
			if math.Abs(end.Values[i][j]-want)/want > 1e-9 {
				t.Fatalf("endurance map inconsistent with latency map at (%d,%d)", i, j)
			}
		}
	}
	// The slowest cell is also the most durable one (§II-B trade-off).
	if lat.Values[3][3] != lat.Max() || end.Values[3][3] != end.Max() {
		t.Error("far corner must be slowest and most durable")
	}
}

// TestMapsDeterministicAcrossJobs: block-parallel sampling must produce
// bit-identical maps at every worker count (each block is an independent
// solve written to a fixed slot; see DESIGN.md §9).
func TestMapsDeterministicAcrossJobs(t *testing.T) {
	arr, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	op := SingleBitOp(ConstVolts(3.0))
	sample := func(jobs int) *Map {
		par.SetJobs(jobs)
		m, err := arr.EffectiveVrstMap(context.Background(), 8, op)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	defer par.SetJobs(0)
	ref := sample(1)
	for _, jobs := range []int{2, 8} {
		m := sample(jobs)
		for i := range ref.Values {
			for j := range ref.Values[i] {
				if m.Values[i][j] != ref.Values[i][j] {
					t.Fatalf("jobs=%d: block (%d,%d) = %v, serial %v",
						jobs, i, j, m.Values[i][j], ref.Values[i][j])
				}
			}
		}
	}
}

func TestMapAt(t *testing.T) {
	m := newMap(4)
	m.Values[1][2] = 42
	if got := m.At(64, 24, 40); got != 42 {
		t.Errorf("At(64,24,40) = %g, want block (1,2) = 42", got)
	}
}

func TestMapValidation(t *testing.T) {
	arr, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arr.EffectiveVrstMap(context.Background(), 7, SingleBitOp(ConstVolts(3.0))); err == nil {
		t.Error("7 blocks should not divide a 64-cell array")
	}
	if _, err := arr.EffectiveVrstMap(context.Background(), 8, nil); err == nil {
		t.Error("nil op accepted")
	}
	// An op that fails to reset the sampled cell must be rejected.
	bad := func(row, col int) ResetOp {
		return ResetOp{Row: row, Cols: []int{(col + 1) % 64}, Volts: []float64{3.0}}
	}
	if _, err := arr.EffectiveVrstMap(context.Background(), 8, bad); err == nil {
		t.Error("op missing the sampled column accepted")
	}
}

func TestCalibrateLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Size = 128 // keep the test quick; anchors still hold by construction
	p, err := CalibrateLatency(cfg, BestCaseLatency, WorstCaseLatency)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := New(Config{
		Size: cfg.Size, DataWidth: cfg.DataWidth, Rwire: cfg.Rwire,
		Rdrv: cfg.Rdrv, Rdec: cfg.Rdec, TrunkCoeff: cfg.TrunkCoeff,
		Params: p, LRSFrac: cfg.LRSFrac,
	})
	if err != nil {
		t.Fatal(err)
	}
	vBest, err := arr.BestCase(p.Vrst)
	if err != nil {
		t.Fatal(err)
	}
	vWorst, err := arr.WorstCase(p.Vrst)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ResetLatency(vBest); math.Abs(got-BestCaseLatency)/BestCaseLatency > 1e-6 {
		t.Errorf("best-case latency %g, want %g", got, BestCaseLatency)
	}
	if got := p.ResetLatency(vWorst); math.Abs(got-WorstCaseLatency)/WorstCaseLatency > 1e-6 {
		t.Errorf("worst-case latency %g, want %g", got, WorstCaseLatency)
	}
}

func TestCalibrateLatencyRejectsBadAnchors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := CalibrateLatency(cfg, 1e-6, 1e-9); err == nil {
		t.Error("inverted anchors accepted")
	}
	if _, err := CalibrateLatency(cfg, 0, 1e-6); err == nil {
		t.Error("zero anchor accepted")
	}
}

// TestSampleMapCancellation: a cancelled context must abort map sampling
// promptly with the cancellation cause, at serial and parallel settings.
func TestSampleMapCancellation(t *testing.T) {
	arr, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("shutdown requested")
	for _, jobs := range []int{1, 4} {
		par.SetJobs(jobs)
		ctx, cancel := context.WithCancelCause(context.Background())
		cancel(cause)
		_, err := arr.EffectiveVrstMap(ctx, 8, SingleBitOp(ConstVolts(3.0)))
		par.SetJobs(0)
		if !errors.Is(err, cause) {
			t.Fatalf("jobs=%d: err = %v, want wrapped cause", jobs, err)
		}
	}

	// Mid-run cancellation: cancel from inside the first sampled block;
	// the map must come back with an error, not hang or complete.
	ctx, cancel := context.WithCancelCause(context.Background())
	var once sync.Once
	op := func(row, col int) ResetOp {
		once.Do(func() { cancel(cause) })
		return ResetOp{Row: row, Cols: []int{col}, Volts: []float64{3.0}}
	}
	if _, err := arr.EffectiveVrstMap(ctx, 8, op); !errors.Is(err, cause) {
		t.Fatalf("mid-run cancel: err = %v, want wrapped cause", err)
	}
	cancel(nil)
}
