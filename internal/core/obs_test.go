package core

import (
	"context"
	"testing"

	"reramsim/internal/obs"
	"reramsim/internal/write"
)

// TestLineWriteEventsAndMetrics prices a line write with metrics on and
// asserts that the registry counts the pricing work, not the write: a
// memoized write is one cost-table hit and no solve, a cold op misses
// and runs the solver. Watching must not change the price either: the
// LineCost is identical with metrics on and off.
func TestLineWriteEventsAndMetrics(t *testing.T) {
	s := mustScheme(t, UDRVRPR)
	lw := write.LineWrite{}
	lw.Arrays[0] = write.ArrayWrite{Reset: 1 << 7} // far mux: PR expands it
	// Priced with metrics off, this also warms the memo, so the write
	// below is the steady-state path and its deltas are its own.
	off, err := s.CostWrite(context.Background(), 300, 40, lw)
	if err != nil {
		t.Fatal(err)
	}

	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})

	before := obs.Default().Snapshot()
	on, err := s.CostWrite(context.Background(), 300, 40, lw)
	if err != nil {
		t.Fatal(err)
	}
	delta := obs.Default().Snapshot().Delta(before)
	if on != off {
		t.Errorf("LineCost with metrics on = %+v, off = %+v; watching must not change the price", on, off)
	}
	// One array op (bit 7 expanded by PR within one array slice), served
	// from the table without the solver.
	if got := delta.Counters["core.memo.hits"]; got != 1 {
		t.Errorf("memoized write: core.memo.hits delta = %d, want 1", got)
	}
	if got := delta.Counters["core.memo.misses"]; got != 0 {
		t.Errorf("memoized write: core.memo.misses delta = %d, want 0", got)
	}
	if got := delta.Counters["xpoint.reset.solves"]; got != 0 {
		t.Errorf("memoized write ran %d solves, want 0", got)
	}

	// A cold op on a different offset bucket misses and runs the solver.
	before = obs.Default().Snapshot()
	if _, err := s.CostWrite(context.Background(), 10, 0, lw); err != nil {
		t.Fatal(err)
	}
	delta = obs.Default().Snapshot().Delta(before)
	if got := delta.Counters["core.memo.misses"]; got != 1 {
		t.Errorf("cold write: core.memo.misses delta = %d, want 1", got)
	}
	if got := delta.Counters["xpoint.reset.solves"]; got == 0 {
		t.Error("cold write ran no xpoint.reset.solves")
	}
}
