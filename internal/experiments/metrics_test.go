package experiments

import (
	"testing"

	"reramsim/internal/obs"
)

// TestSuiteCapturesMetrics runs one simulation with observability on
// and checks the registry counts it once, in memsys.sims, and that a
// second Sim of the same point is served from the suite's cache
// without simulating again.
func TestSuiteCapturesMetrics(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})

	s, err := NewSuite(400)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Snapshot()
	if _, err := s.Sim("Base", "mcf_m"); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Snapshot().Delta(before).Counters["memsys.sims"]; got != 1 {
		t.Errorf("one Sim: memsys.sims delta = %d, want 1", got)
	}

	before = obs.Default().Snapshot()
	if _, err := s.Sim("Base", "mcf_m"); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Snapshot().Delta(before).Counters["memsys.sims"]; got != 0 {
		t.Errorf("cached re-run: memsys.sims delta = %d, want 0", got)
	}
}
