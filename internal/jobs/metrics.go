package jobs

import "reramsim/internal/obs"

// Engine observability ("jobs.*" series). Like every obs series these
// only count while observability is enabled (-metrics); the engine's
// behaviour never depends on them.
var (
	obsCompleted   = obs.C("jobs.completed")   // cells run to completion this process
	obsResumed     = obs.C("jobs.resumed")     // cells skipped via the on-disk journal
	obsPanicked    = obs.C("jobs.panicked")    // cells quarantined by a captured panic
	obsRetried     = obs.C("jobs.retried")     // transient-failure re-attempts issued
	obsStalled     = obs.C("jobs.stalled")     // watchdog flags (no heartbeat in N x median)
	obsTimeouts    = obs.C("jobs.timeouts")    // cells that exceeded the per-cell deadline
	obsQuarantined = obs.C("jobs.quarantined") // total cells quarantined (panic+timeout+error)
	obsFlushes     = obs.C("jobs.flushes")     // journal segments written
	obsColdStarts  = obs.C("jobs.cold_starts") // journals discarded (missing/stale/corrupt)
	obsCorruptSegs = obs.C("jobs.journal.corrupt_segments")
)
