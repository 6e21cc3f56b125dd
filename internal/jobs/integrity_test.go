package jobs

import (
	"context"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"reramsim/internal/atomicio"
)

// appendRecords journals recs through the engine's own journal, one
// segment per record, as a live run would.
func appendRecords(t *testing.T, e *Engine, recs ...record) {
	t.Helper()
	for _, r := range recs {
		if err := e.j.append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// retraction is a kind-3 record as earlier builds wrote it.
func retraction(key string) record {
	data, err := marshalQuarantine(quarantineData{Reason: "audit", Error: "divergent results for " + key})
	if err != nil {
		panic(err)
	}
	return record{kind: recRetracted, key: key, data: data}
}

// TestRetractReplaysAsNotDone: a legacy retraction record must strike
// the earlier completion on journal replay — the retracted cell re-runs
// and is never served from disk — while other completions survive.
func TestRetractReplaysAsNotDone(t *testing.T) {
	dir := t.TempDir()
	eng := mustOpen(t, Options{Dir: dir, Digest: "d1"})
	appendRecords(t, eng,
		record{kind: recCompleted, key: "a", data: []byte("pa")},
		record{kind: recCompleted, key: "b", data: []byte("pb")},
		retraction("a"),
	)

	// Replay: a resumed engine must not hold the retracted cell.
	eng2 := mustOpen(t, Options{Dir: dir, Resume: true, Digest: "d1"})
	if _, ok := eng2.Resumed("a"); ok {
		t.Fatal("journal replay resurrected the retracted cell")
	}
	if p, _ := eng2.Resumed("b"); string(p) != "pb" {
		t.Fatalf("replay lost the surviving completion: %q", p)
	}
	runs := map[string]int{}
	var states map[string]CellState
	cells := []Cell{
		{Key: "a", Run: func(context.Context) ([]byte, error) {
			runs["a"]++
			// While the retracted cell re-runs, the surviving one shows
			// as resumed and the retracted one as running, not resumed.
			states = map[string]CellState{}
			for _, c := range eng2.Progress().Cells {
				states[c.Key] = c.State
			}
			return []byte("pa2"), nil
		}},
		{Key: "b", Run: func(context.Context) ([]byte, error) { runs["b"]++; return []byte("pb"), nil }},
	}
	rep, err := eng2.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if runs["a"] != 1 || runs["b"] != 0 {
		t.Fatalf("runs = %v, want the retracted cell re-run once and the other served from disk", runs)
	}
	if len(rep.Resumed) != 1 || rep.Resumed[0] != "b" {
		t.Fatalf("resumed = %v, want [b]", rep.Resumed)
	}
	if len(rep.Executed) != 1 || rep.Executed[0] != "a" || string(rep.Done["a"]) != "pa2" {
		t.Fatalf("executed = %v, done[a] = %q, want the re-run payload", rep.Executed, rep.Done["a"])
	}
	if states["a"] != CellRunning || states["b"] != CellResumed {
		t.Fatalf("progress during the re-run = %v, want a running and b resumed", states)
	}
}

// TestCompletionSupersedesRetraction: a later completion (a cell re-run
// after its retraction) replays over the retraction, mirroring the
// completion-supersedes-quarantine rule.
func TestCompletionSupersedesRetraction(t *testing.T) {
	dir := t.TempDir()
	eng := mustOpen(t, Options{Dir: dir, Digest: "d1"})
	appendRecords(t, eng,
		record{kind: recCompleted, key: "a", data: []byte("v1")},
		retraction("a"),
		record{kind: recCompleted, key: "a", data: []byte("v2")},
	)
	eng2 := mustOpen(t, Options{Dir: dir, Resume: true, Digest: "d1"})
	if p, _ := eng2.Resumed("a"); string(p) != "v2" {
		t.Fatalf("replayed payload = %q, want the post-retraction completion v2", p)
	}
	rep, err := eng2.Run(context.Background(), []Cell{{Key: "a", Run: func(context.Context) ([]byte, error) {
		t.Error("a cell completed after its retraction was re-run")
		return nil, nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resumed) != 1 || string(rep.Done["a"]) != "v2" {
		t.Fatalf("resumed = %v, done[a] = %q, want a served from disk as v2", rep.Resumed, rep.Done["a"])
	}
}

// TestJournalDiskFullRetries: a journal fsync failing with ENOSPC in
// the middle of a run is a transient error. With retries allowed the
// cell re-runs, every cell finishes, nothing is quarantined, and the
// journal ends up complete: a resumed engine serves every cell from
// disk. The hook goes in after Open, so the manifest write is spared.
func TestJournalDiskFullRetries(t *testing.T) {
	dir := t.TempDir()
	eng := mustOpen(t, Options{Dir: dir, Digest: "d1", MaxRetries: 3, sleep: func(context.Context, time.Duration) {}})
	par1(t)
	var fails atomic.Int64
	fails.Store(2)
	prev := atomicio.SetHook(func(dest, stage string) error {
		if stage == atomicio.StageSync && fails.Add(-1) >= 0 {
			return syscall.ENOSPC
		}
		return nil
	})
	t.Cleanup(func() { atomicio.SetHook(prev) })

	rep, err := eng.Run(context.Background(), grid(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Done) != 4 || rep.Retries != 2 || len(rep.Quarantined) != 0 {
		t.Fatalf("done=%d retries=%d quarantined=%v, want 4, 2, none", len(rep.Done), rep.Retries, rep.Quarantined)
	}

	atomicio.SetHook(prev)
	eng2 := mustOpen(t, Options{Dir: dir, Digest: "d1", Resume: true})
	rep2, err := eng2.Run(context.Background(), grid(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Resumed) != 4 || len(rep2.Executed) != 0 {
		t.Fatalf("resumed=%v executed=%v, want all 4 cells from disk", rep2.Resumed, rep2.Executed)
	}
	for _, c := range grid(4) {
		if want := "payload for " + c.Key; string(rep2.Done[c.Key]) != want {
			t.Fatalf("resumed %s = %q, want %q", c.Key, rep2.Done[c.Key], want)
		}
	}
}
