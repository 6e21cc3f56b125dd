package memsys

import (
	"context"
	"testing"

	"reramsim/internal/core"
	"reramsim/internal/trace"
)

// warmAllocGrowth is the allocation growth TestWarmSimulateAllocs allows
// when a warm run doubles from 800 to 1,600 accesses per core.
const warmAllocGrowth = 64

// BenchmarkSimulateWarm times the warm event loop: a UDRVR+PR/mcf_m run
// at 1,600 accesses per core on a scheme whose cost table already holds
// every op the run prices, so each access is priced from the memo,
// queued and issued without the solver. The replay sub-benchmark takes
// each access from a recorded Trace, as a suite's cells do; generate
// draws and Flip-N-Writes it live, as Simulate does. Both report ns per
// simulated access, and each fails when doubling its run from 800 to
// 1,600 accesses per core adds more allocations than
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
	traces := make(map[int]*Trace)
	for _, n := range []int{800, 1600} {
		cfg.AccessesPerCore = n
		if traces[n], err = RecordTrace(context.Background(), bench, cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, src := range []struct {
		name string
		sim  func(Config) (*Result, error)
	}{
		{"replay", func(cfg Config) (*Result, error) {
			return SimulateTrace(context.Background(), s, traces[cfg.AccessesPerCore], cfg)
		}},
		{"generate", func(cfg Config) (*Result, error) { return Simulate(s, bench, cfg) }},
	} {
		b.Run(src.name, func(b *testing.B) {
			sim := func(accesses int) {
				cfg.AccessesPerCore = accesses
				if _, err := src.sim(cfg); err != nil {
					b.Fatal(err)
				}
			}
			sim(1600) // prime the cost table
			short := testing.AllocsPerRun(1, func() { sim(800) })
			long := testing.AllocsPerRun(1, func() { sim(1600) })
			if extra := long - short; extra > warmAllocGrowth {
				b.Fatalf("warm %s: %.0f allocs at 1600 accesses/core vs %.0f at 800 (+%.0f), want at most +%d",
					src.name, long, short, extra, warmAllocGrowth)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim(1600)
			}
			accesses := b.N * cfg.Cores * cfg.AccessesPerCore
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}
