package core

import (
	"testing"

	"reramsim/internal/obs"
	"reramsim/internal/write"
)

// TestLineWriteEventsAndMetrics prices a single line write and asserts
// the expected metric updates: per-section RESET counters, the PR
// partition-size distribution, the priced-write latency, and solver
// work only for a cold op.
func TestLineWriteEventsAndMetrics(t *testing.T) {
	s := mustScheme(t, UDRVRPR)
	// Warm the memo so the measured write is the steady-state path and the
	// enabled-run deltas below are attributable to this one line write.
	lw := write.LineWrite{}
	lw.Arrays[0] = write.ArrayWrite{Reset: 1 << 7} // far mux: PR expands it
	if _, err := s.CostWrite(300, 40, lw); err != nil {
		t.Fatal(err)
	}

	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})

	before := obs.Default().Snapshot()
	cost, err := s.CostWrite(300, 40, lw)
	if err != nil {
		t.Fatal(err)
	}
	delta := obs.Default().Snapshot().Delta(before)

	// One array op in the section of row 300, expanded by PR to 4
	// concurrent RESETs (bit 7 -> one per 2-bit group).
	section := s.Levels().SectionOf(300, s.Array().Config().Size)
	if got := delta.Counters["core.reset.section."+string(rune('0'+section))]; got != 1 {
		t.Errorf("section %d counter delta = %d, want 1", section, got)
	}
	if got := delta.Counters["core.pr.partition_size.4"]; got != 1 {
		t.Errorf("partition_size.4 delta = %d, want 1", got)
	}
	if got := delta.Counters["core.pr.compensating_sets"]; got != 3 {
		t.Errorf("compensating_sets delta = %d, want 3", got)
	}
	if got := delta.Counters["core.writes_priced"]; got != 1 {
		t.Errorf("writes_priced delta = %d, want 1", got)
	}
	if h := delta.Histograms["core.reset.latency_ns"]; h.Count != 1 {
		t.Errorf("reset latency histogram delta count = %d, want 1", h.Count)
	}
	if cost.Level <= 0 {
		t.Errorf("LineCost.Level = %g, want > 0 while instrumented", cost.Level)
	}
	if cost.Section != section {
		t.Errorf("LineCost.Section = %d, want %d", cost.Section, section)
	}

	// A memoized line write prices without the solver, at a positive
	// latency.
	if got := delta.Counters["xpoint.reset.solves"]; got != 0 {
		t.Errorf("memoized write ran %d solves, want 0", got)
	}
	if h := delta.Histograms["core.write.latency_ns"]; h.Count != 1 || h.Sum <= 0 {
		t.Errorf("write latency histogram delta = %d obs summing %g ns, want 1 positive", h.Count, h.Sum)
	}

	// A cold op on a different offset bucket runs the solver.
	before = obs.Default().Snapshot()
	if _, err := s.CostWrite(10, 0, lw); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Snapshot().Delta(before).Counters["xpoint.reset.solves"]; got == 0 {
		t.Error("cold write ran no xpoint.reset.solves")
	}
}
