package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// withObs enables metrics for one test and restores the disabled default.
func withObs(t *testing.T) {
	t.Helper()
	SetEnabled(true)
	t.Cleanup(func() {
		SetEnabled(false)
		Default().ResetValues()
	})
}

func TestCounterGaugeBasics(t *testing.T) {
	withObs(t)
	c := C("test.counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if C("test.counter") != c {
		t.Fatal("registry did not return the same counter handle")
	}
	g := G("test.gauge")
	g.Set(2.5)
	g.SetMax(1.0) // lower: no effect
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	g.SetMax(7.25)
	if got := g.Value(); got != 7.25 {
		t.Fatalf("gauge after SetMax = %g, want 7.25", got)
	}
}

func TestDisabledMutationsAreDropped(t *testing.T) {
	SetEnabled(false)
	t.Cleanup(func() { Default().ResetValues() })
	c := C("test.disabled.counter")
	c.Inc()
	h := H("test.disabled.hist", LinearBounds(1, 10, 10))
	h.Observe(3)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled mutations recorded: counter=%d hist=%d", c.Value(), h.Count())
	}
}

func TestHistogramBuckets(t *testing.T) {
	withObs(t)
	h := H("test.hist_ns", LatencyBoundsNS())
	for _, v := range []float64{1, 3, 15, 15, 2300, 1e9} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 1.0+3+15+15+2300+1e9; math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	snap := Default().Snapshot().Histograms["test.hist_ns"]
	if snap.Min != 1 || snap.Max != 1e9 {
		t.Fatalf("min/max = %g/%g, want 1/1e9", snap.Min, snap.Max)
	}
	var total uint64
	for _, b := range snap.Buckets {
		total += b.Count
	}
	if total != 6 {
		t.Fatalf("bucket counts sum to %d, want 6", total)
	}
	// 1e9 ns exceeds the largest bound, so the overflow bucket holds it.
	if last := snap.Buckets[len(snap.Buckets)-1]; last.Count != 1 || !math.IsInf(last.LE, 1) {
		t.Fatalf("overflow bucket = %+v, want 1 count at +Inf", last)
	}
}

func TestSnapshotDelta(t *testing.T) {
	withObs(t)
	c := C("test.delta.counter")
	h := H("test.delta.hist", LinearBounds(1, 4, 4))
	c.Add(10)
	h.Observe(2)
	before := Default().Snapshot()
	c.Add(5)
	h.Observe(3)
	d := Default().Snapshot().Delta(before)
	if d.Counters["test.delta.counter"] != 5 {
		t.Fatalf("counter delta = %d, want 5", d.Counters["test.delta.counter"])
	}
	dh := d.Histograms["test.delta.hist"]
	if dh.Count != 1 || math.Abs(dh.Sum-3) > 1e-9 {
		t.Fatalf("hist delta count/sum = %d/%g, want 1/3", dh.Count, dh.Sum)
	}
}

func TestSnapshotJSONAndText(t *testing.T) {
	withObs(t)
	C("test.out.counter").Inc()
	G("test.out.gauge").Set(1.5)
	H("test.out.hist_ns", LatencyBoundsNS()).Observe(100)
	H("test.out.empty", LinearBounds(1, 2, 2)) // empty histogram must encode

	var jsonBuf bytes.Buffer
	if err := Default().Snapshot().WriteJSON(&jsonBuf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if decoded.Counters["test.out.counter"] != 1 {
		t.Fatalf("decoded counter = %d, want 1", decoded.Counters["test.out.counter"])
	}

	var txt bytes.Buffer
	if err := Default().Snapshot().WriteText(&txt); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := txt.String()
	for _, want := range []string{
		"test_out_counter 1",
		"test_out_gauge 1.5",
		`test_out_hist_ns_bucket{le="+Inf"}`,
		"test_out_hist_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTimeScope(t *testing.T) {
	withObs(t)
	stop := Time(H("test.scope_ns", LatencyBoundsNS()))
	stop()
	h := Default().Snapshot().Histograms["test.scope_ns"]
	if h.Count != 1 {
		t.Fatalf("timing scope recorded %d observations, want 1", h.Count)
	}
}

// TestDisabledPathAllocationFree pins the tentpole contract: with
// observability off, every instrumentation primitive is allocation-free.
func TestDisabledPathAllocationFree(t *testing.T) {
	SetEnabled(false)
	c := C("test.alloc.counter")
	g := G("test.alloc.gauge")
	h := H("test.alloc.hist", LatencyBoundsNS())
	t.Cleanup(func() { Default().ResetValues() })

	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
		g.SetMax(2)
		h.Observe(3)
		Time(h)()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestResetValues(t *testing.T) {
	withObs(t)
	C("test.reset.counter").Add(3)
	H("test.reset.hist", LinearBounds(1, 2, 2)).Observe(1)
	Default().ResetValues()
	s := Default().Snapshot()
	if s.Counters["test.reset.counter"] != 0 || s.Histograms["test.reset.hist"].Count != 0 {
		t.Fatalf("ResetValues left state behind: %+v", s)
	}
}
