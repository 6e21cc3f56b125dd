package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func spansByName(sink *MemorySpanSink) map[string]Span {
	out := make(map[string]Span)
	for _, sp := range sink.Spans() {
		out[sp.Name] = sp
	}
	return out
}

// TestSpanNestingSameGoroutine: spans opened on one goroutine nest via
// the per-goroutine stack, no context plumbing needed.
func TestSpanNestingSameGoroutine(t *testing.T) {
	sink := &MemorySpanSink{}
	SetSpanSink(sink)
	defer SetSpanSink(nil)

	_, stopOuter := StartSpan(context.Background(), "outer")
	stopMid := SpanScope("mid")
	stopInner := SpanScope("inner")
	stopInner()
	stopMid()
	stopOuter()

	got := spansByName(sink)
	if len(got) != 3 {
		t.Fatalf("captured %d spans, want 3", len(got))
	}
	if got["outer"].ParentID != 0 {
		t.Errorf("outer parent = %d, want 0", got["outer"].ParentID)
	}
	if got["mid"].ParentID != got["outer"].ID {
		t.Errorf("mid parent = %d, want outer id %d", got["mid"].ParentID, got["outer"].ID)
	}
	if got["inner"].ParentID != got["mid"].ID {
		t.Errorf("inner parent = %d, want mid id %d", got["inner"].ParentID, got["mid"].ID)
	}
	// Emission order is innermost-first (spans emit on stop).
	all := sink.Spans()
	if all[0].Name != "inner" || all[2].Name != "outer" {
		t.Errorf("emission order = %s,%s,%s; want inner,mid,outer", all[0].Name, all[1].Name, all[2].Name)
	}
}

// TestSpanNestingAcrossGoroutines: a span started on a fresh goroutine
// picks its parent up from the context StartSpan returned.
func TestSpanNestingAcrossGoroutines(t *testing.T) {
	sink := &MemorySpanSink{}
	SetSpanSink(sink)
	defer SetSpanSink(nil)

	ctx, stopRoot := StartSpan(context.Background(), "sweep")
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, stop := StartSpan(ctx, "cell")
			defer stop()
			defer SpanScope("solve")() // nests under cell via the goroutine stack
		}()
	}
	wg.Wait()
	stopRoot()

	byName := spansByName(sink)
	rootID := byName["sweep"].ID
	cells, solves := 0, 0
	cellIDs := make(map[uint64]bool)
	for _, sp := range sink.Spans() {
		switch sp.Name {
		case "cell":
			cells++
			cellIDs[sp.ID] = true
			if sp.ParentID != rootID {
				t.Errorf("cell parent = %d, want sweep id %d", sp.ParentID, rootID)
			}
		}
	}
	for _, sp := range sink.Spans() {
		if sp.Name == "solve" {
			solves++
			if !cellIDs[sp.ParentID] {
				t.Errorf("solve parent = %d, not a cell span", sp.ParentID)
			}
		}
	}
	if cells != 3 || solves != 3 {
		t.Errorf("cells=%d solves=%d, want 3 and 3", cells, solves)
	}
}

// TestSpanDisabledZeroAlloc: with no sink installed both span entry
// points must not allocate (the bench guard BenchmarkSpanDisabled is
// the CI gate; this is the fast unit check).
func TestSpanDisabledZeroAlloc(t *testing.T) {
	SetSpanSink(nil)
	ctx := context.Background()
	if avg := testing.AllocsPerRun(100, func() {
		_, stop := StartSpan(ctx, "x")
		stop()
		SpanScope("y")()
	}); avg > 0 {
		t.Errorf("disabled span path allocates %.1f times/op, want 0", avg)
	}
}

// TestChromeTraceSink: the exported file is valid JSON, events carry
// the X phase with microsecond ts/dur, and a child's time range sits
// inside its parent's on the same tid (what Perfetto nests by).
func TestChromeTraceSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeTraceSink(&buf)
	SetSpanSink(sink)

	_, stopOuter := StartSpan(context.Background(), `outer "quoted"`)
	stopInner := SpanScope("inner")
	time.Sleep(2 * time.Millisecond)
	stopInner()
	stopOuter()

	SetSpanSink(nil)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		TID  uint64  `json:"tid"`
		Args struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
		} `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace file is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(events) != 2 {
		t.Fatalf("trace has %d events, want 2", len(events))
	}
	inner, outer := events[0], events[1]
	if !strings.HasPrefix(inner.Name, "inner") || !strings.HasPrefix(outer.Name, "outer") {
		t.Fatalf("unexpected event order: %q, %q", inner.Name, outer.Name)
	}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Errorf("event %q phase = %q, want X", ev.Name, ev.Ph)
		}
	}
	if inner.TID != outer.TID {
		t.Errorf("inner tid %d != outer tid %d; same-goroutine spans must share a track", inner.TID, outer.TID)
	}
	if inner.Args.Parent != outer.Args.ID {
		t.Errorf("inner parent = %d, want outer id %d", inner.Args.Parent, outer.Args.ID)
	}
	if inner.TS < outer.TS || inner.TS+inner.Dur > outer.TS+outer.Dur+1e-6 {
		t.Errorf("inner [%g,%g] not contained in outer [%g,%g]",
			inner.TS, inner.TS+inner.Dur, outer.TS, outer.TS+outer.Dur)
	}
	if inner.Dur < 1000 { // slept 2ms; at least 1ms in microseconds
		t.Errorf("inner dur = %g us, want >= 1000", inner.Dur)
	}
}

// TestRuntimeCollector: a collect pass publishes the runtime.* series,
// and the background collector stops idempotently.
func TestRuntimeCollector(t *testing.T) {
	SetEnabled(true)
	defer SetEnabled(false)
	stop := StartRuntimeCollector()
	defer stop()
	CollectRuntime()
	snap := Default().Snapshot()
	for _, g := range []string{
		"runtime.heap_alloc_bytes", "runtime.goroutines", "runtime.uptime_seconds",
	} {
		if snap.Gauges[g] <= 0 {
			t.Errorf("gauge %s = %g, want > 0", g, snap.Gauges[g])
		}
	}
	if _, ok := snap.Histograms["runtime.gc.pause_ns"]; !ok {
		t.Error("runtime.gc.pause_ns histogram not registered")
	}
	stop()
	stop() // idempotent
}
