package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestWriteTextGolden pins the Prometheus text exposition byte-for-byte,
// as /metrics serves it and reramsim -metrics prints it: counter and
// gauge lines with TYPE headers, counters before gauges, each block
// sorted by name, and dot/dash -> underscore name mapping.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	SetEnabled(true)
	defer SetEnabled(false)

	r.Counter("xpoint.reset.sweeps").Add(42)
	r.Counter("jobs.cold-starts").Inc() // dash must map to underscore too
	r.Gauge("runtime.gc.pause_total_ns").Set(125000)
	r.Gauge("par.inflight_max").Set(0.25)

	const want = `# TYPE jobs_cold_starts counter
jobs_cold_starts 1
# TYPE xpoint_reset_sweeps counter
xpoint_reset_sweeps 42
# TYPE par_inflight_max gauge
par_inflight_max 0.25
# TYPE runtime_gc_pause_total_ns gauge
runtime_gc_pause_total_ns 125000
`
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("WriteText mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSnapshotLockFreeUnderMutation hammers the lock-free render path
// while writers mutate and register metrics — the -race gate for
// scrape-during-sweep.
func TestSnapshotLockFreeUnderMutation(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	r := NewRegistry()

	const iters = 400
	var writers, scrapers sync.WaitGroup
	stop := make(chan struct{})
	// Writers: mutate a fixed set and keep registering fresh names (the
	// copy-on-write view churns while scrapers read it).
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := r.Counter("hammer.count")
			g := r.Gauge("hammer.max")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.SetMax(float64(i))
				r.Gauge("hammer.fresh." + string(rune('a'+w)) + string(rune('a'+i%26))).Set(float64(i))
			}
		}(w)
	}
	// Scrapers.
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := r.WriteText(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	scrapers.Wait()

	final := r.Snapshot()
	if got := final.Counters["hammer.count"]; got != 4*iters {
		t.Errorf("hammer.count = %d, want %d", got, 4*iters)
	}
	if got := final.Gauges["hammer.max"]; got != iters-1 {
		t.Errorf("hammer.max = %g, want %d", got, iters-1)
	}
}
