package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"reramsim/internal/core"
	"reramsim/internal/memsys"
	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/trace"
	"reramsim/internal/xpoint"
)

// sweepJSON runs a compact ext+main sweep on a FRESH suite (so nothing is
// served from a cache shared between settings) and serializes everything
// a figure would read: rendered ext output, the speedup table for a small
// scheme set, and the raw simulation results.
func sweepJSON(t *testing.T) []byte {
	t.Helper()
	s, err := NewSuite(400)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []string{"Base", "UDRVR+PR"}
	workloads := []string{"mcf_m", "mil_m"}
	if err := s.PrimeSims(crossPairs(schemes, workloads)); err != nil {
		t.Fatal(err)
	}
	type point struct {
		Scheme, Workload string
		IPC              float64
		Reads, Writes    uint64
		EnergyTotal      float64
	}
	var pts []point
	for _, sc := range schemes {
		for _, w := range workloads {
			r, err := s.Sim(sc, w)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, point{sc, w, r.IPC, r.Reads, r.Writes, r.Energy.Total()})
		}
	}
	ext, err := s.ExtReadMargin()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(struct {
		Ext    string
		Points []point
	}{ext, pts})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepDeterministicAcrossJobs: the ext/main sweep JSON must be
// byte-identical at -jobs=1, -jobs=8 and under GOMAXPROCS=2 — the
// parallel engine's core guarantee.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full fresh-suite sweeps")
	}
	par.SetJobs(1)
	ref := sweepJSON(t)

	par.SetJobs(8)
	if got := sweepJSON(t); string(got) != string(ref) {
		t.Errorf("-jobs=8 output differs from serial:\nserial: %s\njobs=8: %s", ref, got)
	}

	old := runtime.GOMAXPROCS(2)
	par.SetJobs(0)
	got := sweepJSON(t)
	runtime.GOMAXPROCS(old)
	par.SetJobs(0)
	if string(got) != string(ref) {
		t.Errorf("GOMAXPROCS=2 output differs from serial:\nserial: %s\ngot: %s", ref, got)
	}
}

// TestSimSingleflight: many concurrent Sim calls for one key must share a
// single execution. Verified through the metric registry: memsys.sims
// counts one simulation across the hammer.
func TestSimSingleflight(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})

	s, err := NewSuite(300)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Snapshot()

	const callers = 16
	var wg sync.WaitGroup
	results := make([]*memsys.Result, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, err := s.Sim("Base", "mcf_m")
			if err != nil {
				t.Error(err)
			}
			results[c] = r
		}(c)
	}
	wg.Wait()

	for c := 1; c < callers; c++ {
		if results[c] != results[0] {
			t.Fatalf("caller %d got a different result pointer: the simulation ran more than once", c)
		}
	}
	if got := obs.Default().Snapshot().Delta(before).Counters["memsys.sims"]; got != 1 {
		t.Errorf("registry recorded %d simulations across %d concurrent Sim calls, want 1", got, callers)
	}
}

// TestSharedSolverFirstUse: eight goroutines make first use of DRVR,
// DRVR+PR, UDRVR+PR and UDRVR-3.94 in one suite, two cells each. The
// four builds race for the suite's solver state and must share it: one
// Array on the default configuration, one DRVR calibration (DRVR and
// DRVR+PR hold one level table, and the run solves exactly as many
// RESET ops as a serial run, which calibrates once), and every cell's
// Result bytes equal to the serial run's. Run under -race (make
// race-par) it checks the solver's maps and flights.
func TestSharedSolverFirstUse(t *testing.T) {
	obs.SetEnabled(true)
	core.SetSolveCache(nil)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})
	schemes := []string{"DRVR", "DRVR+PR", "UDRVR+PR", "UDRVR-3.94"}
	workloads := []string{"mcf_m", "mil_m"}
	cellOf := func(g int) SimPair { return SimPair{schemes[g%len(schemes)], workloads[g/len(schemes)]} }
	const cells = 8

	// run simulates every cell on a fresh suite, serially or from one
	// goroutine per cell, and returns the Result bytes and RESET solves.
	run := func(concurrent bool) (*Suite, [cells][]byte, uint64) {
		s, err := NewSuite(200)
		if err != nil {
			t.Fatal(err)
		}
		var out [cells][]byte
		sim := func(g int) {
			c := cellOf(g)
			r, err := s.Sim(c.Scheme, c.Workload)
			if err != nil {
				t.Error(err)
				return
			}
			if out[g], err = json.Marshal(r); err != nil {
				t.Error(err)
			}
		}
		before := obs.Default().Snapshot()
		if concurrent {
			var wg sync.WaitGroup
			for g := 0; g < cells; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sim(g)
				}()
			}
			wg.Wait()
		} else {
			for g := 0; g < cells; g++ {
				sim(g)
			}
		}
		return s, out, obs.Default().Snapshot().Delta(before).Counters["xpoint.reset.solves"]
	}

	_, want, serialSolves := run(false)
	s, got, solves := run(true)
	if t.Failed() {
		t.FailNow()
	}
	for g := range got {
		if string(got[g]) != string(want[g]) {
			c := cellOf(g)
			t.Errorf("%s/%s: concurrent first use differs from serial:\n got  %s\n want %s", c.Scheme, c.Workload, got[g], want[g])
		}
	}
	if solves != serialSolves {
		t.Errorf("concurrent first use solved %d RESET ops, serial %d: a shared build ran twice", solves, serialSolves)
	}
	built := make([]*core.Scheme, len(schemes))
	for i, name := range schemes {
		sc, err := s.Scheme(name)
		if err != nil {
			t.Fatal(err)
		}
		built[i] = sc
		if sc.Array() != built[0].Array() {
			t.Errorf("%s has an Array of its own; the four schemes share one", name)
		}
	}
	if built[0].Levels() != built[1].Levels() {
		t.Error("DRVR and DRVR+PR hold two DRVR level tables; the suite calibrates one")
	}
}

// TestSuiteParallelHammer drives Sim/Scheme and a scheme on a 256x256
// sweep config from many goroutines at once with observability on; run
// under -race (make race-par) it is the suite's data-race detector. The
// registry must neither lose nor double-count the simulations running
// in parallel, and the goroutines must share one build of the 256x256
// scheme.
func TestSuiteParallelHammer(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})

	s, err := NewSuite(200)
	if err != nil {
		t.Fatal(err)
	}
	cfg256, err := s.sweepConfig(func(c *xpoint.Config) { c.Size = 256 })
	if err != nil {
		t.Fatal(err)
	}
	pairs := crossPairs([]string{"Base", "Hard"}, []string{"mcf_m", "mil_m"})
	before := obs.Default().Snapshot()
	built := make([]*core.Scheme, 12)
	var wg sync.WaitGroup
	for g := range built {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := pairs[g%len(pairs)]
			if _, err := s.Sim(p.Scheme, p.Workload); err != nil {
				t.Error(err)
			}
			if _, err := s.Scheme(p.Scheme); err != nil {
				t.Error(err)
			}
			sc, err := s.scheme(context.Background(), cfg256, "Base")
			if err != nil {
				t.Error(err)
			}
			built[g] = sc
		}(g)
	}
	wg.Wait()
	for g := range built {
		if built[g] != built[0] {
			t.Fatalf("goroutine %d got its own 256x256 Base scheme: one (array config, name) must build once", g)
		}
	}
	if root, err := s.Scheme("Base"); err != nil || root == built[0] {
		t.Errorf("the 256x256 config shares the suite config's Base scheme (err %v)", err)
	}

	// Every pair ran exactly once (12 goroutines cover all 4).
	if got := obs.Default().Snapshot().Delta(before).Counters["memsys.sims"]; got != uint64(len(pairs)) {
		t.Errorf("registry recorded %d simulations, want %d, one per cell", got, len(pairs))
	}
}

// TestInstrumentedSimsOverlap: observability must not serialize
// simulations. With metrics and spans on and two workers, two cold cells
// of one scheme must simulate at the same time — their memsys spans
// overlap — even at GOMAXPROCS=1.
func TestInstrumentedSimsOverlap(t *testing.T) {
	obs.SetEnabled(true)
	sink := &obs.MemorySpanSink{}
	obs.SetSpanSink(sink)
	par.SetJobs(2)
	t.Cleanup(func() {
		par.SetJobs(0)
		obs.SetSpanSink(nil)
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})

	s, err := NewSuite(1200)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PrimeSims(crossPairs([]string{"Base"}, []string{"mcf_m", "mil_m"})); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]obs.Span)
	for _, sp := range sink.Spans() {
		byName[sp.Name] = sp
	}
	a, okA := byName["memsys.sim:Base/mcf_m"]
	b, okB := byName["memsys.sim:Base/mil_m"]
	if !okA || !okB {
		t.Fatalf("memsys.sim span recorded for Base/mcf_m: %v, Base/mil_m: %v", okA, okB)
	}
	if a.Start >= b.Start+b.Dur || b.Start >= a.Start+a.Dur {
		t.Errorf("instrumented sims ran one after the other: mcf_m [%v, %v], mil_m [%v, %v]",
			a.Start, a.Start+a.Dur, b.Start, b.Start+b.Dur)
	}
}

// TestVariantInheritsMemCfg: a sweep variant's cells simulate the
// suite's whole system, on the suite's full memory config (fault
// settings included), not a default one.
func TestVariantInheritsMemCfg(t *testing.T) {
	s, err := NewSuite(200)
	if err != nil {
		t.Fatal(err)
	}
	s.MemCfg.UseCaches = true
	s.MemCfg.Seed = 77
	s.MemCfg.FaultProfile = "endurance"
	s.MemCfg.FaultSeed = 5
	s.MemCfg.MaxWriteRetries = 7
	mod := func(c *xpoint.Config) { c.Size = 256 }
	out, err := s.sweep("t-system", []sweepRow{{"256x256", mod}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "256x256") {
		t.Fatalf("sweep rendered no 256x256 row:\n%s", out)
	}

	cfg, err := s.sweepConfig(mod)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	for c := range s.sims {
		if c.Mem != s.MemCfg || c.Array != cfg {
			t.Errorf("sweep cell %s/%s ran on array %+v, memory %+v", c.Scheme, c.Workload, c.Array, c.Mem)
		}
	}
	s.mu.Unlock()
	got, err := s.sim(s.Context(), cell{cfg, s.MemCfg, "Hard+Sys", "mcf_m"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Reliability == nil {
		t.Error("sweep cell ran without the suite's fault profile")
	}
	sc, err := s.scheme(context.Background(), cfg, "Hard+Sys")
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.ByName("mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	want, err := memsys.Simulate(sc, b, s.MemCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep cell result differs from a direct simulation on the suite's memory config:\n got %+v\nwant %+v", got, want)
	}
}

// TestSweepStopsUnderSuiteContext: sweep cells run under the suite's
// context, so cancelling it stops a sweep figure before its cells run.
func TestSweepStopsUnderSuiteContext(t *testing.T) {
	s, err := NewSuite(200)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.SetContext(ctx)
	cancel()
	if _, err := s.Fig18(); !errors.Is(err, context.Canceled) {
		t.Errorf("Fig18 after cancellation: err = %v, want context.Canceled", err)
	}
}
