package xpoint

import "reramsim/internal/obs"

// Solver-level observability: the work the per-op solver spends, not
// what the solved op delivered (Veff and latency are the result's, and
// the figures print them). The handles are resolved once at package
// init so SimulateReset pays only gated atomic updates; with obs
// disabled the whole block reduces to one atomic load.
var (
	obsSolves   = obs.C("xpoint.reset.solves")
	obsSweeps   = obs.C("xpoint.reset.sweeps")
	obsMemoHits = obs.C("xpoint.reset.bl_memo_hits")

	// Solver exits other than convergence (see solveWork).
	obsOuterCapped    = obs.C("xpoint.reset.outer_capped")
	obsInnerCapped    = obs.C("xpoint.reset.inner_capped")
	obsInnerStagnated = obs.C("xpoint.reset.inner_stagnated")
	obsLadderCapped   = obs.C("xpoint.reset.ladder_capped")
)

// recordSolve publishes the ladder work the per-op solver spent on one
// RESET op: sweeps run, opening bit-line solves served from the memo,
// and the loops that stopped at a cap or at the stagnation cut-off
// instead of converging. Sweeps count work independent of the host, so
// they sit next to wall time as a solver cost.
func recordSolve(w solveWork) {
	if !obs.Enabled() {
		return
	}
	obsSolves.Inc()
	obsSweeps.Add(uint64(w.sweeps))
	obsMemoHits.Add(uint64(w.memoHits))
	obsOuterCapped.Add(uint64(w.outerCapped))
	obsInnerCapped.Add(uint64(w.innerCapped))
	obsInnerStagnated.Add(uint64(w.innerStagnated))
	obsLadderCapped.Add(uint64(w.ladderCapped))
}
