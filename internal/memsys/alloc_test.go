package memsys

import (
	"testing"

	"reramsim/internal/obs"
	"reramsim/internal/trace"
)

// TestWarmSimulateAllocs: once the scheme's cost table holds every op a
// run prices, the event loop allocates nothing per access, with metrics
// off or on. Doubling the run length may add only the few allocations
// of growing per-run tables (the line-write map, the event heap), not
// one per event, request or priced op.
func TestWarmSimulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	s := schemes()["udrvrpr"]
	bench, err := trace.ByName("mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(accesses int) float64 {
		cfg := DefaultConfig()
		cfg.AccessesPerCore = accesses
		cfg.Seed = 42
		sim := func() {
			if _, err := Simulate(s, bench, cfg); err != nil {
				t.Fatal(err)
			}
		}
		sim() // prime the cost table
		return testing.AllocsPerRun(1, sim)
	}
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})
	for _, metrics := range []bool{false, true} {
		obs.SetEnabled(metrics)
		short, long := allocs(800), allocs(1600)
		if extra := long - short; extra > 64 {
			t.Errorf("warm Simulate, metrics %v: %.0f allocs at 1600 accesses/core vs %.0f at 800 (+%.0f), want at most +64",
				metrics, long, short, extra)
		}
	}
}
