package xpoint

import (
	"math"

	"reramsim/internal/obs"
)

// Solver-level observability. The handles are resolved once at package
// init so SimulateReset pays only gated atomic updates; with obs
// disabled the whole block reduces to one atomic load.
var (
	obsSolves    = obs.C("xpoint.reset.solves")
	obsFailed    = obs.C("xpoint.reset.failed")
	obsVeff      = obs.H("xpoint.reset.veff_v", obs.VoltageBounds())
	obsLatency   = obs.H("xpoint.reset.latency_ns", obs.LatencyBoundsNS())
	obsWorstDrop = obs.G("xpoint.reset.worst_drop_v")
	obsSweeps    = obs.C("xpoint.reset.sweeps")
	obsMemoHits  = obs.C("xpoint.reset.bl_memo_hits")
)

// recordSolve publishes one solved RESET op's electrical outcome and the
// ladder work the per-op solver spent on it: sweeps run and opening
// bit-line solves served from the memo. Sweeps count work independent of
// the host, so they sit next to wall time as a solver cost.
func recordSolve(op ResetOp, res *ResetResult, w solveWork) {
	if !obs.Enabled() {
		return
	}
	obsSolves.Inc()
	obsSweeps.Add(uint64(w.sweeps))
	obsMemoHits.Add(uint64(w.memoHits))
	if res.Failed {
		obsFailed.Inc()
	}
	for i, v := range res.Veff {
		obsVeff.Observe(v)
		obsWorstDrop.SetMax(op.Volts[i] - v)
	}
	// Failed ops report +Inf latency; keep the histogram (and any JSON
	// dump of it) finite.
	if !math.IsInf(res.Latency, 1) {
		obsLatency.Observe(res.Latency * 1e9)
	}
}
