package experiments

import (
	"encoding/json"
	"testing"

	"reramsim/internal/core"
	"reramsim/internal/obs"
	"reramsim/internal/solvecache"
)

var (
	cacheSchemes   = []string{"Base", "UDRVR+PR"}
	cacheWorkloads = []string{"mcf_m", "mil_m"}
)

// cacheTest turns metrics on, installs a solve cache on a fresh
// directory and restores both when the test ends.
func cacheTest(t *testing.T) {
	t.Helper()
	sc, err := solvecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	obs.SetEnabled(true)
	core.SetSolveCache(sc)
	t.Cleanup(func() {
		core.SetSolveCache(nil)
		obs.SetEnabled(false)
	})
}

// preloaded builds a fresh scheme on the installed cache and reports
// how many memo entries it starts with.
func preloaded(t *testing.T, s *Suite, name string) int {
	t.Helper()
	fresh, err := schemeBuilders[name](s.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fresh.MemoSize()
}

// cacheGridResults primes the test grid and returns each cell's result
// as JSON, in grid order.
func cacheGridResults(t *testing.T, s *Suite) [][]byte {
	t.Helper()
	pairs := crossPairs(cacheSchemes, cacheWorkloads)
	if err := s.PrimeSims(pairs); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(pairs))
	for i, p := range pairs {
		r, err := s.Sim(p.Scheme, p.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSimFlushesSolveCache: once Sim returns, the ops it solved are on
// disk, so a fresh scheme on the directory preloads the live scheme's
// whole memo. This is what lets the jobs engine journal a cell knowing
// its ops are already cached.
func TestSimFlushesSolveCache(t *testing.T) {
	cacheTest(t)
	s := freshSuite(t)
	for _, w := range cacheWorkloads {
		if _, err := s.Sim("UDRVR+PR", w); err != nil {
			t.Fatal(err)
		}
		live, err := s.Scheme("UDRVR+PR")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := preloaded(t, s, "UDRVR+PR"), live.MemoSize(); got != want || want == 0 {
			t.Errorf("after Sim(UDRVR+PR, %s): a fresh scheme preloads %d entries, the live memo holds %d", w, got, want)
		}
	}
}

// TestSolveCacheFillAndWarmGrid fills a cache with a small grid, then
// runs the grid again on a fresh suite over that directory. The fill
// writes at most one memo dump per cell plus one level table per
// calibrated scheme (not one dump per solved op); the warm run solves
// nothing; and cache-off, cold and warm results are byte-identical.
func TestSolveCacheFillAndWarmGrid(t *testing.T) {
	cacheTest(t)
	cold := freshSuite(t)
	const levelTables = 1 // UDRVR+PR; Base uses the flat table
	bound := uint64(len(cacheSchemes)*len(cacheWorkloads) + levelTables)

	before := obs.Default().Snapshot()
	coldOut := cacheGridResults(t, cold)
	fill := obs.Default().Snapshot().Delta(before)
	if w := fill.Counters["solvecache.writes"]; w == 0 || w > bound {
		t.Errorf("filling the grid wrote %d cache entries, want 1..%d (one dump per cell, one level table)", w, bound)
	}
	if misses := fill.Counters["core.memo.misses"]; misses <= bound {
		t.Errorf("the fill solved only %d ops; the write bound above proves nothing", misses)
	}

	warm := newSuitePrecalibrated(cold.Cfg, 0)
	warm.MemCfg = cold.MemCfg
	before = obs.Default().Snapshot()
	warmOut := cacheGridResults(t, warm)
	d := obs.Default().Snapshot().Delta(before)
	for _, c := range []string{"core.memo.misses", "xpoint.reset.solves", "solvecache.writes"} {
		if n := d.Counters[c]; n != 0 {
			t.Errorf("warm grid: %s = %d, want 0", c, n)
		}
	}

	core.SetSolveCache(nil)
	off := newSuitePrecalibrated(cold.Cfg, 0)
	off.MemCfg = cold.MemCfg
	offOut := cacheGridResults(t, off)
	for i := range offOut {
		if string(coldOut[i]) != string(offOut[i]) || string(warmOut[i]) != string(offOut[i]) {
			t.Errorf("cell %d: cache-off, cold and warm results differ:\n off  %s\n cold %s\n warm %s",
				i, offOut[i], coldOut[i], warmOut[i])
		}
	}
}

// TestFlushSolveCacheOutsideSims: ops priced outside any simulation
// (WorstWriteCost, as Fig. 5b and the lifetime estimate price them)
// reach disk through FlushSolveCache, which the CLIs call at exit.
func TestFlushSolveCacheOutsideSims(t *testing.T) {
	cacheTest(t)
	s := freshSuite(t)
	sc, err := s.Scheme("Base")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.WorstWriteCost(); err != nil {
		t.Fatal(err)
	}
	if n := preloaded(t, s, "Base"); n != 0 {
		t.Fatalf("a fresh scheme preloads %d entries before the flush, want 0", n)
	}
	before := obs.Default().Snapshot()
	s.FlushSolveCache()
	s.FlushSolveCache() // nothing new was solved: no second write
	if w := obs.Default().Snapshot().Delta(before).Counters["solvecache.writes"]; w != 1 {
		t.Errorf("two flushes wrote %d cache entries, want 1", w)
	}
	if got, want := preloaded(t, s, "Base"), sc.MemoSize(); got != want || want == 0 {
		t.Errorf("after FlushSolveCache a fresh scheme preloads %d entries, the live memo holds %d", got, want)
	}
}
