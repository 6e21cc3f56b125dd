package core

import (
	"fmt"
	"math/bits"

	"reramsim/internal/obs"
	"reramsim/internal/write"
)

// Write-path observability. Counters are registered eagerly at init so a
// -metrics dump shows every series (zero-valued when unused); handles are
// package vars so CostWrite pays only gated atomic updates.
var (
	obsWritesPriced = obs.C("core.writes_priced")
	obsWriteFailed  = obs.C("core.write.failed")
	obsResetLat     = obs.H("core.reset.latency_ns", obs.LatencyBoundsNS())
	obsWriteLat     = obs.H("core.write.latency_ns", obs.LatencyBoundsNS())
	obsMemoHits     = obs.C("core.memo.hits")
	obsMemoMisses   = obs.C("core.memo.misses")
	obsPREarlyOut   = obs.C("core.pr.early_out")
	obsPRCompSets   = obs.C("core.pr.compensating_sets")
	obsPumpRounds   = obs.C("core.pump.rounds")
	obsDummyResets  = obs.C("core.dbl.dummy_resets")

	// obsSection counts RESET ops per DRVR section (ablation section
	// counts are folded onto the default eight buckets).
	obsSection [Sections]*obs.Counter
	// obsPRSize is the PR partition-size distribution: how many
	// concurrent RESETs each array op performed after mask augmentation
	// (index = RESET count, 1..8).
	obsPRSize [9]*obs.Counter
)

func init() {
	for i := range obsSection {
		obsSection[i] = obs.C(fmt.Sprintf("core.reset.section.%d", i))
	}
	for n := 1; n < len(obsPRSize); n++ {
		obsPRSize[n] = obs.C(fmt.Sprintf("core.pr.partition_size.%d", n))
	}
}

// recordArrayOp publishes one array slice's RESET op: its section (folded
// to 8 buckets), and for PR schemes the partition size and the mask
// augmentation applied.
func (s *Scheme) recordArrayOp(section int, pre, post write.ArrayWrite) {
	idx := section * Sections / s.levels.Sections
	if idx >= Sections {
		idx = Sections - 1
	}
	obsSection[idx].Inc()
	if !s.opt.PR {
		return
	}
	n := bits.OnesCount8(post.Reset)
	if n > 0 && n < len(obsPRSize) {
		obsPRSize[n].Inc()
	}
	if post == pre {
		obsPREarlyOut.Inc()
	} else if added := bits.OnesCount8(post.Set) - bits.OnesCount8(pre.Set); added > 0 {
		obsPRCompSets.Add(uint64(added))
	}
}

// recordLineCost publishes one priced line write.
func recordLineCost(c LineCost) {
	obsWritesPriced.Inc()
	obsResetLat.Observe(c.ResetLatency * 1e9)
	obsWriteLat.Observe(c.Latency() * 1e9)
	obsPumpRounds.Add(uint64(c.PumpRounds))
	obsDummyResets.Add(uint64(c.DummyResets))
	if c.Failed {
		obsWriteFailed.Inc()
	}
}
