package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestWriteTextGolden pins the Prometheus text exposition byte-for-byte
// before the telemetry server (and later reramd) depend on it: counter
// and gauge lines with TYPE headers, histogram _bucket/_sum/_count
// framing with cumulative counts and a quoted +Inf edge, the empty-
// histogram 0/0 sentinel, and dot/dash -> underscore name mapping.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	SetEnabled(true)
	defer SetEnabled(false)

	r.Counter("core.writes_priced").Add(42)
	r.Counter("jobs.cold-starts").Inc() // dash must map to underscore too
	r.Gauge("xpoint.reset.worst_drop_v").Set(0.25)
	h := r.Histogram("memsys.read.latency_ns", []float64{10, 100, 1000})
	h.Observe(5)
	h.Observe(50)
	h.Observe(51)
	h.Observe(5000)
	r.Histogram("core.reset.latency_ns", []float64{10, 100}) // stays empty

	const want = `# TYPE core_writes_priced counter
core_writes_priced 42
# TYPE jobs_cold_starts counter
jobs_cold_starts 1
# TYPE xpoint_reset_worst_drop_v gauge
xpoint_reset_worst_drop_v 0.25
# TYPE core_reset_latency_ns histogram
core_reset_latency_ns_bucket{le="10"} 0
core_reset_latency_ns_bucket{le="100"} 0
core_reset_latency_ns_bucket{le="+Inf"} 0
core_reset_latency_ns_sum 0
core_reset_latency_ns_count 0
# TYPE memsys_read_latency_ns histogram
memsys_read_latency_ns_bucket{le="10"} 1
memsys_read_latency_ns_bucket{le="100"} 3
memsys_read_latency_ns_bucket{le="1000"} 3
memsys_read_latency_ns_bucket{le="+Inf"} 4
memsys_read_latency_ns_sum 5106
memsys_read_latency_ns_count 4
`
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("WriteText mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSnapshotLockFreeUnderMutation hammers the lock-free snapshot path
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
			h := r.Histogram("hammer.lat_ns", LatencyBoundsNS())
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i))
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
				if err := r.Snapshot().WriteText(&sb); err != nil {
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
	if got := final.Histograms["hammer.lat_ns"].Count; got != 4*iters {
		t.Errorf("hammer.lat_ns count = %d, want %d", got, 4*iters)
	}
}
