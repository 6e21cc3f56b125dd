package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"reramsim/internal/core"
	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/xpoint"
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

// TestSharedSolverWork: a Suite's schemes share one core.Solver. DRVR
// and DRVR+PR price against the same DRVR level table on the same
// Array, so priming DRVR, then DRVR+PR, on mcf_m calibrates once and
// solves each op once: fewer solves and memo misses than the same two
// cells on two fresh suites, with the same result bytes. The counts are
// pinned like TestSolverWorkPinned's, counted from after NewSuite's
// Eq. 1 calibration. One Array serves every scheme on the default
// configuration, and UDRVR+PR, on that Array with a different level
// table, prices from a cost table of its own: its cell too matches a
// fresh suite's.
func TestSharedSolverWork(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates six schemes and simulates six cells")
	}
	obs.SetEnabled(true)
	par.SetJobs(1)
	core.SetSolveCache(nil)
	t.Cleanup(func() {
		par.SetJobs(0)
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})

	newSuite := func() *Suite {
		s, err := NewSuite(1200)
		if err != nil {
			t.Fatal(err)
		}
		s.MemCfg.Seed = 1
		return s
	}
	cell := func(s *Suite, scheme string) []byte {
		r, err := s.Sim(scheme, "mcf_m")
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// work runs f and returns the RESET solves and memo misses it caused.
	work := func(f func()) (solves, misses uint64) {
		before := obs.Default().Snapshot()
		f()
		d := obs.Default().Snapshot().Delta(before)
		return d.Counters["xpoint.reset.solves"], d.Counters["core.memo.misses"]
	}

	primed := []string{"DRVR", "DRVR+PR"}
	shared := newSuite()
	got := make(map[string][]byte)
	solves, misses := work(func() {
		for _, scheme := range primed {
			got[scheme] = cell(shared, scheme)
		}
	})
	if solves != 687 || misses != 672 {
		t.Errorf("DRVR then DRVR+PR: %d solves and %d memo misses, want 687 and 672", solves, misses)
	}
	var aloneSolves, aloneMisses uint64
	for _, scheme := range primed {
		alone := newSuite()
		var want []byte
		s, m := work(func() { want = cell(alone, scheme) })
		aloneSolves += s
		aloneMisses += m
		if !bytes.Equal(got[scheme], want) {
			t.Errorf("%s/mcf_m on the shared suite differs from a fresh suite:\n shared %s\n fresh  %s", scheme, got[scheme], want)
		}
	}
	if solves >= aloneSolves || misses >= aloneMisses {
		t.Errorf("shared suite: %d solves and %d misses, two fresh suites: %d and %d; sharing saved nothing",
			solves, misses, aloneSolves, aloneMisses)
	}

	var arr *xpoint.Array
	for _, name := range []string{"Base", "Static-3.70V", "DRVR", "DRVR+PR", "UDRVR+PR", "UDRVR-3.94"} {
		sc, err := shared.Scheme(name)
		if err != nil {
			t.Fatal(err)
		}
		if arr == nil {
			arr = sc.Array()
		} else if sc.Array() != arr {
			t.Errorf("%s has an Array of its own; every scheme on the default configuration shares one", name)
		}
	}

	if got, want := cell(shared, "UDRVR+PR"), cell(newSuite(), "UDRVR+PR"); !bytes.Equal(got, want) {
		t.Errorf("UDRVR+PR/mcf_m after DRVR on the shared suite differs from a fresh suite:\n shared %s\n fresh  %s", got, want)
	}
}
