package memsys

import (
	"fmt"

	"reramsim/internal/obs"
)

// Controller observability: demand counters, service-latency histograms
// and controller-queue depth distributions. Per-bank issue counters are
// geometry-dependent and built per simulation (see newBankCounters).
var (
	obsReads       = obs.C("memsys.reads")
	obsWrites      = obs.C("memsys.writes")
	obsBursts      = obs.C("memsys.write_bursts")
	obsReadLat     = obs.H("memsys.read.latency_ns", obs.LatencyBoundsNS())
	obsWriteWait   = obs.H("memsys.write.wait_ns", obs.LatencyBoundsNS())
	obsReadQDepth  = obs.H("memsys.read_queue.depth", obs.LinearBounds(1, 32, 32))
	obsWriteQDepth = obs.H("memsys.write_queue.depth", obs.LinearBounds(1, 32, 32))
	obsLineWrite   = obs.H("memsys.line_write_ns", obs.LatencyBoundsNS())
)

// newBankCounters resolves the per-bank issue counters for a simulation's
// geometry. Returns nil when observability is off so the hot path can
// skip indexing entirely.
func newBankCounters(banks int) []*obs.Counter {
	if !obs.Enabled() {
		return nil
	}
	out := make([]*obs.Counter, banks)
	for i := range out {
		out[i] = obs.C(fmt.Sprintf("memsys.bank.%02d.ops", i))
	}
	return out
}
