package jobs

import "reramsim/internal/obs"

// Engine observability ("jobs.*" series). Like every obs series these
// only count while observability is enabled (-metrics, -obs-addr); the
// engine's behaviour never depends on them. A watcher reads a running
// grid's progress off them: (completed + resumed + quarantined) / cells
// is the finished fraction, exact once a Run returns uninterrupted.
var (
	obsCells       = obs.C("jobs.cells")       // cells Runs dispatched or first reported as resumed
	obsCompleted   = obs.C("jobs.completed")   // cells run to completion this process
	obsResumed     = obs.C("jobs.resumed")     // journaled cells skipped, counted once each
	obsPanicked    = obs.C("jobs.panicked")    // cells quarantined by a captured panic
	obsRetried     = obs.C("jobs.retried")     // journal-write retries issued
	obsTimeouts    = obs.C("jobs.timeouts")    // cells that exceeded the per-cell deadline
	obsQuarantined = obs.C("jobs.quarantined") // total cells quarantined (panic+timeout+error)
	obsFlushes     = obs.C("jobs.flushes")     // journal cell files written
	obsColdStarts  = obs.C("jobs.cold_starts") // journals discarded (missing/stale/corrupt manifest)
	// Cell files that failed to decode on resume (their cells re-run).
	// The series keeps its segment-era name so existing readers of it
	// keep working.
	obsCorruptCells = obs.C("jobs.journal.corrupt_segments")
)
