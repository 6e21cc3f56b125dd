package obs

import "time"

// nopStop is the shared disabled-path stop function: returning it keeps
// Time allocation-free when observability is off.
var nopStop = func() {}

// Time starts a wall-clock timing scope recording nanoseconds into h, a
// handle resolved once at package init like every other metric. Use as
//
//	var obsLineWrite = obs.H("memsys.line_write_ns", obs.LatencyBoundsNS())
//	defer obs.Time(obsLineWrite)()
//
// When observability is disabled it returns a shared no-op, so the scope
// costs one atomic load and no allocation; enabled, the stop closure is
// its only allocation.
func Time(h *Histogram) func() {
	if !enabled.Load() {
		return nopStop
	}
	start := time.Now()
	return func() {
		h.Observe(float64(time.Since(start).Nanoseconds()))
	}
}
