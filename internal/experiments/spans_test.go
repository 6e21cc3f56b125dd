package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"reramsim/internal/jobs"
	"reramsim/internal/obs"
	"reramsim/internal/par"
)

// TestSweepSpanHierarchy runs a tiny sweep with a span sink installed
// and checks the exported trace has the full nested chain:
// experiments.sweep -> jobs.grid -> cell -> sim -> {scheme,
// memsys.sim -> core.solve_op}, each child resolving to its parent
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
	for _, name := range []string{"memsys.sim:Base/mcf_m", "scheme:Base"} {
		if chain := ancestry(name); len(chain) < 2 || chain[1] != "sim:Base/mcf_m" {
			t.Errorf("%s does not nest under its sim: %v", name, chain)
		}
	}
	solves := 0
	for _, sp := range spans {
		if sp.Name != "core.solve_op" {
			continue
		}
		solves++
		if p := byID[sp.ParentID]; p.Name != "memsys.sim:Base/mcf_m" {
			t.Errorf("core.solve_op parent = %q, want memsys.sim:Base/mcf_m", p.Name)
		}
	}
	if solves == 0 {
		t.Error("no core.solve_op span recorded")
	}
}

// TestSweepSpanTreeIndependentOfJobs: a span's parent is the span its
// context carries, so one grid gives one span tree at any worker count:
// every span but the sweep root names a parent in the trace, and -jobs
// 1 and -jobs 2 give the same multiset of (name, parent name) edges.
// Each scheme gets one cell: two cells of one scheme share cold solves
// through the scheme's flight, and the parent of a shared solve is the
// sim that led it.
func TestSweepSpanTreeIndependentOfJobs(t *testing.T) {
	t.Cleanup(func() { par.SetJobs(0) })
	edges := func(jobs int) map[[2]string]int {
		par.SetJobs(jobs)
		s, err := NewSuite(200)
		if err != nil {
			t.Fatal(err)
		}
		sink := &obs.MemorySpanSink{}
		obs.SetSpanSink(sink)
		defer obs.SetSpanSink(nil)
		pairs := []SimPair{{"Base", "mcf_m"}, {"UDRVR+PR", "mcf_m"}}
		if err := s.PrimeSims(pairs); err != nil {
			t.Fatal(err)
		}
		spans := sink.Spans()
		byID := make(map[uint64]obs.Span, len(spans))
		for _, sp := range spans {
			byID[sp.ID] = sp
		}
		out := make(map[[2]string]int)
		orphans := 0
		for _, sp := range spans {
			p, ok := byID[sp.ParentID]
			if !ok && sp.Name != "experiments.sweep" {
				orphans++
			}
			out[[2]string{sp.Name, p.Name}]++
		}
		if orphans > 0 {
			t.Errorf("-jobs %d: %d of %d spans have no parent in the trace", jobs, orphans, len(spans))
		}
		return out
	}
	one, two := edges(1), edges(2)
	if !reflect.DeepEqual(one, two) {
		t.Errorf("span edges differ between -jobs 1 and -jobs 2:\n  jobs 1: %v\n  jobs 2: %v", one, two)
	}
}

// TestSweepSpansMoveNoResult: a grid run with a span sink installed,
// or with metrics on, gives byte-identical results to one without, so
// neither -trace-spans nor -metrics (nor reramd, which always counts)
// can change a sweep's output.
func TestSweepSpansMoveNoResult(t *testing.T) {
	pairs := []SimPair{{"Base", "mcf_m"}, {"UDRVR+PR", "mcf_m"}}
	run := func(sink obs.SpanSink, metrics bool) []byte {
		s, err := NewSuite(200)
		if err != nil {
			t.Fatal(err)
		}
		obs.SetSpanSink(sink)
		obs.SetEnabled(metrics)
		defer func() {
			obs.SetSpanSink(nil)
			obs.SetEnabled(false)
			obs.Default().ResetValues()
		}()
		if err := s.PrimeSims(pairs); err != nil {
			t.Fatal(err)
		}
		var out []byte
		for _, p := range pairs {
			r, err := s.Sim(p.Scheme, p.Workload)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return out
	}
	plain := run(nil, false)
	if traced := run(&obs.MemorySpanSink{}, false); !bytes.Equal(plain, traced) {
		t.Errorf("results differ with spans on:\n  off: %s\n  on:  %s", plain, traced)
	}
	if counted := run(nil, true); !bytes.Equal(plain, counted) {
		t.Errorf("results differ with metrics on:\n  off: %s\n  on:  %s", plain, counted)
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
