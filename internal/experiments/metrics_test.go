package experiments

import (
	"testing"

	"reramsim/internal/obs"
)

// TestSuiteCapturesMetrics runs one simulation with observability on and
// checks the registry delta across the run is consistent with the
// Result, so figures can be cross-checked against internal counters.
func TestSuiteCapturesMetrics(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})

	s, err := NewSuite(400)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Snapshot()
	res, err := s.Sim("Base", "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	delta := obs.Default().Snapshot().Delta(before)
	if got := delta.Counters["memsys.writes"]; got != res.Writes {
		t.Errorf("delta memsys.writes = %d, Result.Writes = %d", got, res.Writes)
	}
	if got := delta.Counters["memsys.reads"]; got != res.Reads {
		t.Errorf("delta memsys.reads = %d, Result.Reads = %d", got, res.Reads)
	}
	if h := delta.Histograms["memsys.read.latency_ns"]; h.Count != res.Reads {
		t.Errorf("read latency histogram count = %d, want %d", h.Count, res.Reads)
	}

	// A second Sim of the same point is served from cache: it records
	// no further memory traffic.
	before = obs.Default().Snapshot()
	if _, err := s.Sim("Base", "mcf_m"); err != nil {
		t.Fatal(err)
	}
	delta = obs.Default().Snapshot().Delta(before)
	if got := delta.Counters["memsys.reads"] + delta.Counters["memsys.writes"]; got != 0 {
		t.Errorf("cached re-run recorded %d memory accesses, want 0", got)
	}
}
