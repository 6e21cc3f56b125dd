package memsys

import (
	"testing"

	"reramsim/internal/core"
	"reramsim/internal/trace"
)

// warmAllocGrowth is the allocation growth TestWarmSimulateAllocs allows
// when a warm run doubles from 800 to 1,600 accesses per core.
const warmAllocGrowth = 64

// BenchmarkSimulateWarm times the warm event loop: a UDRVR+PR/mcf_m run
// at 1,600 accesses per core on a scheme whose cost table already holds
// every op the run prices, so each access is generated, Flip-N-Written,
// priced from the memo, queued and issued without the solver. It
// reports ns per simulated access, and fails when doubling a warm run
// from 800 to 1,600 accesses per core adds more allocations than
// TestWarmSimulateAllocs allows.
func BenchmarkSimulateWarm(b *testing.B) {
	if raceEnabled {
		b.Skip("sync.Pool drops Puts at random under the race detector")
	}
	s, err := core.UDRVRPR(calibrated())
	if err != nil {
		b.Fatal(err)
	}
	bench, err := trace.ByName("mcf_m")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	sim := func(accesses int) {
		cfg.AccessesPerCore = accesses
		if _, err := Simulate(s, bench, cfg); err != nil {
			b.Fatal(err)
		}
	}
	sim(1600) // prime the cost table
	short := testing.AllocsPerRun(1, func() { sim(800) })
	long := testing.AllocsPerRun(1, func() { sim(1600) })
	if extra := long - short; extra > warmAllocGrowth {
		b.Fatalf("warm Simulate: %.0f allocs at 1600 accesses/core vs %.0f at 800 (+%.0f), want at most +%d",
			long, short, extra, warmAllocGrowth)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim(1600)
	}
	accesses := b.N * cfg.Cores * cfg.AccessesPerCore
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
}
