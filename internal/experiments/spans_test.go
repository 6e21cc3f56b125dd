package experiments

import (
	"strings"
	"testing"

	"reramsim/internal/jobs"
	"reramsim/internal/obs"
)

// TestSweepSpanHierarchy runs a tiny engine-backed sweep with a span
// sink installed and checks the exported trace has the full nested
// chain: experiments.sweep -> jobs.grid -> cell -> sim -> memsys.sim ->
// core.calibrate / xpoint.solve, each child resolving to its parent
// through the recorded ids.
func TestSweepSpanHierarchy(t *testing.T) {
	sink := &obs.MemorySpanSink{}
	obs.SetSpanSink(sink)
	t.Cleanup(func() { obs.SetSpanSink(nil) })

	s, err := NewSuite(200)
	if err != nil {
		t.Fatal(err)
	}
	pairs := crossPairs([]string{"Base"}, []string{"mcf_m"})
	if err := s.PrimeSims(pairs); err != nil {
		t.Fatal(err)
	}

	spans := sink.Spans()
	byID := make(map[uint64]obs.Span, len(spans))
	byName := make(map[string]obs.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
		if _, ok := byName[sp.Name]; !ok {
			byName[sp.Name] = sp
		}
	}

	// ancestry walks parent links from name up to a root, returning the
	// names passed through.
	ancestry := func(name string) []string {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("no span named %q in %d spans", name, len(spans))
		}
		var chain []string
		for {
			chain = append(chain, sp.Name)
			if sp.ParentID == 0 {
				return chain
			}
			parent, ok := byID[sp.ParentID]
			if !ok {
				t.Fatalf("span %q has dangling parent id %d", sp.Name, sp.ParentID)
			}
			sp = parent
		}
	}

	contains := func(chain []string, name string) bool {
		for _, n := range chain {
			if n == name {
				return true
			}
		}
		return false
	}

	simChain := ancestry("sim:Base/mcf_m")
	if !contains(simChain, "experiments.sweep") {
		t.Errorf("sim span does not descend from experiments.sweep: %v", simChain)
	}
	memChain := ancestry("memsys.sim:Base/mcf_m")
	if !contains(memChain, "sim:Base/mcf_m") {
		t.Errorf("memsys span does not descend from its sim: %v", memChain)
	}
	calChain := ancestry("core.calibrate:Base")
	if !contains(calChain, "experiments.sweep") {
		t.Errorf("calibration span does not descend from the sweep: %v", calChain)
	}
	// Calibration's direct array solves are roots; at least one solve
	// must come from the scheme's cost model (under core.solve_op).
	foundSolve := false
	for _, sp := range spans {
		if sp.Name != "xpoint.solve" || sp.ParentID == 0 {
			continue
		}
		if p, ok := byID[sp.ParentID]; ok && p.Name == "core.solve_op" {
			foundSolve = true
			break
		}
	}
	if !foundSolve {
		t.Errorf("no xpoint.solve span nests under core.solve_op")
	}
	for _, name := range []string{"scheme:Base", "core.solve_op"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("expected a %q span", name)
		}
	}
}

// TestSweepSpanHierarchyEngine repeats the chain check through the
// journaled jobs engine, asserting cells nest under the grid span.
func TestSweepSpanHierarchyEngine(t *testing.T) {
	sink := &obs.MemorySpanSink{}
	obs.SetSpanSink(sink)
	t.Cleanup(func() { obs.SetSpanSink(nil) })

	s, err := NewSuite(200)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := jobs.Open(jobs.Options{}) // journal-less: span shape only
	if err != nil {
		t.Fatal(err)
	}
	s.SetEngine(eng)
	if err := s.PrimeSims(crossPairs([]string{"Base"}, []string{"mcf_m"})); err != nil {
		t.Fatal(err)
	}

	byID := make(map[uint64]obs.Span)
	byName := make(map[string]obs.Span)
	for _, sp := range sink.Spans() {
		byID[sp.ID] = sp
		if _, ok := byName[sp.Name]; !ok {
			byName[sp.Name] = sp
		}
	}
	cell, ok := byName["cell:Base/mcf_m"]
	if !ok {
		t.Fatal("no cell span recorded")
	}
	grid, ok := byID[cell.ParentID]
	if !ok || grid.Name != "jobs.grid" {
		t.Fatalf("cell parent = %+v, want jobs.grid", grid)
	}
	sweep, ok := byID[grid.ParentID]
	if !ok || sweep.Name != "experiments.sweep" {
		t.Fatalf("grid parent = %+v, want experiments.sweep", sweep)
	}
	sim, ok := byName["sim:Base/mcf_m"]
	if !ok {
		t.Fatal("no sim span recorded")
	}
	if p := byID[sim.ParentID]; p.Name != "cell:Base/mcf_m" {
		t.Errorf("sim parent = %q, want the cell span", p.Name)
	}
}

// TestSweepReusesSuiteCells: a sweep variant equal to the suite's own
// config is the same cell as another figure's, so it is simulated once.
// Fig. 15 runs 77 cells; Fig. 20 runs 66, of which the 22 on the
// default ON/OFF ratio are Fig. 15's. Together they record 121
// memsys.sim spans.
func TestSweepReusesSuiteCells(t *testing.T) {
	sink := &obs.MemorySpanSink{}
	obs.SetSpanSink(sink)
	t.Cleanup(func() { obs.SetSpanSink(nil) })

	s, err := NewSuite(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []func() (string, error){s.Fig15, s.Fig20} {
		if _, err := fig(); err != nil {
			t.Fatal(err)
		}
	}
	sims := 0
	for _, sp := range sink.Spans() {
		if strings.HasPrefix(sp.Name, "memsys.sim:") {
			sims++
		}
	}
	if sims != 121 {
		t.Errorf("Fig. 15 then Fig. 20 recorded %d memsys.sim spans, want 121", sims)
	}
}
