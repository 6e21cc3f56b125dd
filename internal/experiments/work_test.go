package experiments

import (
	"testing"

	"reramsim/internal/core"
	"reramsim/internal/obs"
	"reramsim/internal/par"
)

// TestSolverWorkPinned gates on work, not wall time: the solver's work
// counters for a fixed pair of cells at -jobs 1 do not depend on the
// host's speed or load, so any change in them is a change in what the
// solver does. Calibration, scheme construction and both simulations
// are counted, as `reramsim -scheme Base,UDRVR+PR -workload mcf_m
// -accesses 1200 -seed 1 -jobs 1 -metrics` counts them. The four exit
// counts pin that every outer loop, inner alternation and ladder solve
// of these cells converged: none stopped at a cap or at the stagnation
// cut-off. A change that moves a count updates the golden value here
// and says why.
func TestSolverWorkPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates and simulates two cells")
	}
	obs.SetEnabled(true)
	par.SetJobs(1)
	core.SetSolveCache(nil)
	t.Cleanup(func() {
		par.SetJobs(0)
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})

	before := obs.Default().Snapshot()
	s, err := NewSuite(1200)
	if err != nil {
		t.Fatal(err)
	}
	s.MemCfg.Seed = 1
	for _, scheme := range []string{"Base", "UDRVR+PR"} {
		if _, err := s.Sim(scheme, "mcf_m"); err != nil {
			t.Fatal(err)
		}
	}
	delta := obs.Default().Snapshot().Delta(before)
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"xpoint.reset.solves", 1059},
		{"xpoint.reset.sweeps", 88341},
		{"xpoint.reset.bl_memo_hits", 1595},
		{"core.memo.misses", 866},
		{"xpoint.reset.outer_capped", 0},
		{"xpoint.reset.inner_capped", 0},
		{"xpoint.reset.inner_stagnated", 0},
		{"xpoint.reset.ladder_capped", 0},
	} {
		if got := delta.Counters[c.name]; got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
