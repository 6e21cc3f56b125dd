package core

import "reramsim/internal/obs"

// Pricing observability: how often a line write's array ops were served
// from the cost table and how often they needed the solver. What the
// priced writes cost is the simulation's result, not a metric.
var (
	obsMemoHits   = obs.C("core.memo.hits")
	obsMemoMisses = obs.C("core.memo.misses")
)
