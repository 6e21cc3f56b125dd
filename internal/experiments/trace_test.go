package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"reramsim/internal/memsys"
	"reramsim/internal/obs"
	"reramsim/internal/trace"
)

// traceSpans counts the memsys.trace spans sink recorded, by workload.
func traceSpans(sink *obs.MemorySpanSink) map[string]int {
	n := make(map[string]int)
	for _, sp := range sink.Spans() {
		if w, ok := strings.CutPrefix(sp.Name, "memsys.trace:"); ok {
			n[w]++
		}
	}
	return n
}

// TestSuiteRecordsOneTracePerWorkload: a suite records each workload's
// access stream once and every cell on the workload replays it. A 3 x 4
// grid records 4 traces, one memsys.trace span each, and every result
// is the bytes of the same simulation drawing its stream live.
// Goroutines that first use one workload at the same time share one
// recording. Run under -race (make race-par), it also checks the
// suite's trace map and flight.
func TestSuiteRecordsOneTracePerWorkload(t *testing.T) {
	sink := &obs.MemorySpanSink{}
	obs.SetSpanSink(sink)
	t.Cleanup(func() { obs.SetSpanSink(nil) })

	s, err := NewSuite(200)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []string{"ast_m", "mcf_m", "mil_m", "zeu_m"}
	pairs := crossPairs([]string{"Base", "Hard+Sys", "UDRVR+PR"}, workloads)
	if err := s.PrimeSims(pairs); err != nil {
		t.Fatal(err)
	}
	spans := traceSpans(sink)
	for _, w := range workloads {
		if spans[w] != 1 {
			t.Errorf("%s: %d memsys.trace spans, want 1", w, spans[w])
		}
	}
	s.mu.Lock()
	kept := len(s.traces)
	s.mu.Unlock()
	if kept != len(workloads) || len(spans) != len(workloads) {
		t.Errorf("the grid kept %d traces and recorded %d workloads, want %d of each", kept, len(spans), len(workloads))
	}
	for _, p := range pairs {
		got, err := s.Sim(p.Scheme, p.Workload)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := s.Scheme(p.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		b, err := trace.ByName(p.Workload)
		if err != nil {
			t.Fatal(err)
		}
		want, err := memsys.Simulate(sc, b, s.MemCfg)
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s/%s: replayed cell differs from generation:\n  live:   %s\n  replay: %s", p.Scheme, p.Workload, wj, gj)
		}
	}

	b, err := trace.ByName("lbm_m")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*memsys.Trace, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tr, err := s.accessTrace(context.Background(), b, s.MemCfg)
			if err != nil {
				t.Error(err)
			}
			got[g] = tr
		}()
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] == nil || got[g] != got[0] {
			t.Fatalf("goroutine %d got its own lbm_m trace: concurrent first uses must share one", g)
		}
	}
	if n := traceSpans(sink)["lbm_m"]; n != 1 {
		t.Errorf("concurrent first uses of lbm_m recorded %d traces, want 1", n)
	}
}

// TestStoppedRecordingNotKept: a recording stopped by its caller's
// context fails that caller and leaves no trace behind, so the next
// caller records the workload afresh.
func TestStoppedRecordingNotKept(t *testing.T) {
	s, err := NewSuite(200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.ByName("mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.accessTrace(ctx, b, s.MemCfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("recording under a cancelled context: err = %v, want context.Canceled", err)
	}
	s.mu.Lock()
	kept := len(s.traces)
	s.mu.Unlock()
	if kept != 0 {
		t.Fatalf("a stopped recording left %d traces behind", kept)
	}
	if _, err := s.accessTrace(context.Background(), b, s.MemCfg); err != nil {
		t.Fatalf("recording after a stopped one: %v", err)
	}
}
