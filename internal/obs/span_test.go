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

// captureSpans installs a fresh memory sink for the test.
func captureSpans(t *testing.T) *MemorySpanSink {
	t.Helper()
	sink := &MemorySpanSink{}
	SetSpanSink(sink)
	t.Cleanup(func() { SetSpanSink(nil) })
	return sink
}

// TestSpanNestingSameGoroutine: spans opened one under another through
// the returned contexts nest, and each child takes its parent's free
// track, so the chain shares one track.
func TestSpanNestingSameGoroutine(t *testing.T) {
	sink := captureSpans(t)

	ctx, stopOuter := StartSpan(context.Background(), "outer")
	ctx, stopMid := StartSpan(ctx, "mid")
	_, stopInner := StartSpan(ctx, "inner")
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
	if got["mid"].Track != got["outer"].Track || got["inner"].Track != got["outer"].Track {
		t.Errorf("tracks outer/mid/inner = %d/%d/%d, want one shared track",
			got["outer"].Track, got["mid"].Track, got["inner"].Track)
	}
	// Emission order is innermost-first (spans emit on stop).
	all := sink.Spans()
	if all[0].Name != "inner" || all[2].Name != "outer" {
		t.Errorf("emission order = %s,%s,%s; want inner,mid,outer", all[0].Name, all[1].Name, all[2].Name)
	}
}

// TestSpanNestingAcrossGoroutines: a span started on another goroutine
// nests under the span its context carries, and so do its own
// children there.
func TestSpanNestingAcrossGoroutines(t *testing.T) {
	sink := captureSpans(t)

	ctx, stopRoot := StartSpan(context.Background(), "sweep")
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, stop := StartSpan(ctx, "cell")
			defer stop()
			_, stopSolve := StartSpan(cctx, "solve")
			stopSolve()
		}()
	}
	wg.Wait()
	stopRoot()

	rootID := spansByName(sink)["sweep"].ID
	cells := make(map[uint64]bool)
	for _, sp := range sink.Spans() {
		if sp.Name == "cell" {
			cells[sp.ID] = true
			if sp.ParentID != rootID {
				t.Errorf("cell parent = %d, want sweep id %d", sp.ParentID, rootID)
			}
		}
	}
	solves := 0
	for _, sp := range sink.Spans() {
		if sp.Name == "solve" {
			solves++
			if !cells[sp.ParentID] {
				t.Errorf("solve parent = %d, not a cell span", sp.ParentID)
			}
		}
	}
	if len(cells) != 3 || solves != 3 {
		t.Errorf("cells=%d solves=%d, want 3 and 3", len(cells), solves)
	}
}

// TestSpanTracks: siblings open at the same time get distinct tracks,
// the first one taking its parent's; a child whose parent's track is
// free shares it; and a track comes back to its lender when the child
// holding it stops.
func TestSpanTracks(t *testing.T) {
	sink := captureSpans(t)

	root, stopRoot := StartSpan(context.Background(), "root")
	const n = 4
	ready := make(chan struct{}, n)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, stop := StartSpan(root, "sibling")
			defer stop()
			ready <- struct{}{}
			<-release // every sibling is open before any stops
			_, stopChild := StartSpan(cctx, "child")
			stopChild()
		}()
	}
	for i := 0; i < n; i++ {
		<-ready
	}
	close(release)
	wg.Wait()
	_, stopLater := StartSpan(root, "later")
	stopLater()
	stopRoot()

	byID := make(map[uint64]Span)
	for _, sp := range sink.Spans() {
		byID[sp.ID] = sp
	}
	rootTrack := spansByName(sink)["root"].Track
	siblingTracks := make(map[uint64]bool)
	for _, sp := range sink.Spans() {
		switch sp.Name {
		case "sibling":
			siblingTracks[sp.Track] = true
		case "child":
			if p := byID[sp.ParentID]; sp.Track != p.Track {
				t.Errorf("child track %d, want its parent's free track %d", sp.Track, p.Track)
			}
		case "later":
			if sp.Track != rootTrack {
				t.Errorf("later child track %d, want the root's track %d once its siblings stopped", sp.Track, rootTrack)
			}
		}
	}
	if len(siblingTracks) != n {
		t.Errorf("%d concurrent siblings ran on %d tracks, want %d distinct", n, len(siblingTracks), n)
	}
	if !siblingTracks[rootTrack] {
		t.Errorf("no sibling took the root's free track %d", rootTrack)
	}
}

// TestSpanAfterParentStopped: a child started under a parent that has
// already stopped still names that parent, but opens its own track.
func TestSpanAfterParentStopped(t *testing.T) {
	sink := captureSpans(t)

	ctx, stop := StartSpan(context.Background(), "parent")
	stop()
	_, stopLate := StartSpan(ctx, "late")
	stopLate()

	got := spansByName(sink)
	if got["late"].ParentID != got["parent"].ID {
		t.Errorf("late parent = %d, want parent id %d", got["late"].ParentID, got["parent"].ID)
	}
	if got["late"].Track == got["parent"].Track {
		t.Errorf("late child shares the stopped parent's track %d", got["parent"].Track)
	}
}

// TestSpanDisabledZeroAlloc: with no sink installed a span and a child
// under it must not allocate (the bench guard BenchmarkSpanDisabled is
// the CI gate; this is the fast unit check).
func TestSpanDisabledZeroAlloc(t *testing.T) {
	SetSpanSink(nil)
	ctx := context.Background()
	if avg := testing.AllocsPerRun(100, func() {
		sctx, stop := StartSpan(ctx, "x")
		_, stopChild := StartSpan(sctx, "y")
		stopChild()
		stop()
	}); avg > 0 {
		t.Errorf("disabled span path allocates %.1f times/op, want 0", avg)
	}
}

// TestChromeTraceSink: the exported file is valid JSON, events carry
// the X phase with microsecond ts/dur and the explicit parent ids, and
// any two events on one track (tid) nest or are disjoint, which is
// what Perfetto draws flame rows by.
func TestChromeTraceSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeTraceSink(&buf)
	SetSpanSink(sink)

	root, stopRoot := StartSpan(context.Background(), `root "quoted"`)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				cctx, stop := StartSpan(root, "cell")
				_, stopSolve := StartSpan(cctx, "solve")
				time.Sleep(time.Millisecond)
				stopSolve()
				stop()
			}
		}()
	}
	wg.Wait()
	_, stopTail := StartSpan(root, "tail")
	time.Sleep(2 * time.Millisecond)
	stopTail()
	stopRoot()

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
	if len(events) != 20 {
		t.Fatalf("trace has %d events, want 20", len(events))
	}
	byID := make(map[uint64]int, len(events))
	for i, ev := range events {
		byID[ev.Args.ID] = i
		if ev.Ph != "X" {
			t.Errorf("event %q phase = %q, want X", ev.Name, ev.Ph)
		}
	}
	tail, top := events[len(events)-2], events[len(events)-1]
	if tail.Name != "tail" || !strings.HasPrefix(top.Name, "root") {
		t.Fatalf("unexpected last events: %q, %q", tail.Name, top.Name)
	}
	if tail.Args.Parent != top.Args.ID || tail.TID != top.TID {
		t.Errorf("tail parent/tid = %d/%d, want root's id %d on its track %d",
			tail.Args.Parent, tail.TID, top.Args.ID, top.TID)
	}
	if tail.Dur < 1000 { // slept 2ms; at least 1ms in microseconds
		t.Errorf("tail dur = %g us, want >= 1000", tail.Dur)
	}
	for _, ev := range events {
		if ev.Name != "solve" {
			continue
		}
		if p := events[byID[ev.Args.Parent]]; p.Name != "cell" {
			t.Errorf("solve parent %q, want a cell", p.Name)
		}
	}
	const eps = 1e-3 // one nanosecond, in microseconds
	for i, a := range events {
		for _, b := range events[i+1:] {
			if a.TID != b.TID {
				continue
			}
			aEnd, bEnd := a.TS+a.Dur, b.TS+b.Dur
			disjoint := aEnd <= b.TS+eps || bEnd <= a.TS+eps
			nested := (a.TS <= b.TS+eps && bEnd <= aEnd+eps) || (b.TS <= a.TS+eps && aEnd <= bEnd+eps)
			if !disjoint && !nested {
				t.Errorf("track %d: %q [%g, %g] and %q [%g, %g] overlap without nesting",
					a.TID, a.Name, a.TS, aEnd, b.Name, b.TS, bEnd)
			}
		}
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
