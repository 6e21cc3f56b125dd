package serve

import "reramsim/internal/obs"

// Daemon observability ("serve.*" series). Like every obs series these
// only count while observability is enabled; reramd enables the registry
// unconditionally at startup — a service without metrics is undebuggable.
var (
	obsRequests  = obs.C("serve.requests")  // API requests received
	obsAdmitted  = obs.C("serve.admitted")  // compute requests past admission control
	obsShed      = obs.C("serve.shed")      // requests 429'd by a client's token bucket
	obsSaturated = obs.C("serve.saturated") // requests 503'd (queue full, queue wait, drain)
	obsPanics    = obs.C("serve.panics")    // handler panics quarantined by the recovery middleware
	obsTimeouts  = obs.C("serve.timeouts")  // requests 504'd by their deadline
	obsInflight  = obs.G("serve.inflight")  // compute slots currently held
	obsQueued    = obs.G("serve.queued")    // requests currently parked waiting for a slot
	obsDrainMs   = obs.G("serve.drain_ms")  // wall-clock of the last graceful drain
	obsDraining  = obs.G("serve.draining")  // 1 while the server refuses new work
	obsClients   = obs.G("serve.clients")   // distinct client buckets tracked
	obsSolves    = obs.C("serve.solves")    // /v1/solve executions reaching the backend
)
