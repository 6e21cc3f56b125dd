package chargepump

import "reramsim/internal/obs"

// Pump observability: DRVR/UDRVR writes ask the pump for a different
// output level whenever consecutive writes land in different sections,
// and each switch costs a regulator settle. The counters quantify that
// churn system-wide; each rank's memory controller owns one tracker.
var (
	obsSwitches    = obs.C("chargepump.level_switches")
	obsSettles     = obs.C("chargepump.settle_events")
	obsUndershoots = obs.C("chargepump.undershoot_events")
)

// LevelTracker follows one pump's requested output level across writes,
// counting level switches and the settle events they trigger. The zero
// value is ready to use; it is not safe for concurrent use (each rank's
// controller owns its own).
type LevelTracker struct {
	last   float64
	primed bool
}

// Observe records that a write requested the given output level.
// Non-positive levels (SET-only writes, or metrics disabled upstream)
// are ignored.
func (t *LevelTracker) Observe(level float64) {
	if level <= 0 {
		return
	}
	if !t.primed {
		t.primed = true
		t.last = level
		obsSettles.Inc()
		return
	}
	if level == t.last {
		return
	}
	t.last = level
	obsSwitches.Inc()
	obsSettles.Inc()
}

// Level returns the last observed output level (0 before any write).
func (t *LevelTracker) Level() float64 { return t.last }

// ObserveUndershoot records a settle that reported ready while the
// output sat dv volts below target (a fault-injection event); the next
// write attempt sees a reduced delivered margin. Non-positive deficits
// are ignored.
func (t *LevelTracker) ObserveUndershoot(dv float64) {
	if dv <= 0 {
		return
	}
	obsUndershoots.Inc()
}
