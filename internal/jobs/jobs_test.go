package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"reramsim/internal/atomicio"
	"reramsim/internal/par"
)

// grid builds n cells whose payload is a pure function of the key.
func grid(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		key := fmt.Sprintf("cell-%02d", i)
		cells[i] = Cell{Key: key, Run: func(ctx context.Context) ([]byte, error) {
			return []byte("payload for " + key), nil
		}}
	}
	return cells
}

func mustOpen(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRunWithoutJournal(t *testing.T) {
	e := mustOpen(t, Options{})
	rep, err := e.Run(context.Background(), grid(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Done) != 5 || len(rep.Executed) != 5 || len(rep.Resumed) != 0 || !rep.Complete() {
		t.Fatalf("report: %+v", rep)
	}
	if string(rep.Done["cell-03"]) != "payload for cell-03" {
		t.Fatalf("payload: %q", rep.Done["cell-03"])
	}
}

func TestJournalAndResume(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Digest: "d1"})
	if _, err := e.Run(context.Background(), grid(6)); err != nil {
		t.Fatal(err)
	}
	files, _ := cellFiles(dir)
	if len(files) != 6 {
		t.Fatalf("expected one file per cell, got %d", len(files))
	}

	// A second engine resuming the same digest must skip every cell.
	calls := 0
	cells := grid(6)
	for i := range cells {
		inner := cells[i].Run
		cells[i].Run = func(ctx context.Context) ([]byte, error) { calls++; return inner(ctx) }
	}
	e2 := mustOpen(t, Options{Dir: dir, Digest: "d1", Resume: true})
	rep, err := e2.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("resume ran %d cells, want 0", calls)
	}
	if len(rep.Resumed) != 6 || len(rep.Executed) != 0 {
		t.Fatalf("resumed=%v executed=%v", rep.Resumed, rep.Executed)
	}
	if string(rep.Done["cell-05"]) != "payload for cell-05" {
		t.Fatalf("resumed payload: %q", rep.Done["cell-05"])
	}
}

func TestResumeDigestMismatchColdStarts(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Digest: "old"})
	if _, err := e.Run(context.Background(), grid(3)); err != nil {
		t.Fatal(err)
	}
	e2 := mustOpen(t, Options{Dir: dir, Digest: "new", Resume: true})
	rep, err := e2.Run(context.Background(), grid(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resumed) != 0 || len(rep.Executed) != 3 {
		t.Fatalf("stale journal was resumed: %+v", rep)
	}
}

func TestPanicQuarantinesCellNotGrid(t *testing.T) {
	dir := t.TempDir()
	cells := grid(5)
	cells[2].Run = func(ctx context.Context) ([]byte, error) { panic("cell exploded") }
	e := mustOpen(t, Options{Dir: dir, Digest: "d"})
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() || len(rep.Quarantined) != 1 || len(rep.Executed) != 4 {
		t.Fatalf("report: %+v", rep)
	}
	q := rep.Quarantined[0]
	if q.Key != "cell-02" || q.Reason != "panic" {
		t.Fatalf("quarantine: %+v", q)
	}
	var pe *ErrCellPanic
	if !errors.As(q.Err, &pe) || pe.Value != "cell exploded" || !strings.Contains(q.Stack, "jobs.") {
		t.Fatalf("typed panic error missing: %#v", q.Err)
	}
	if rep.ExitCode(nil) != ExitPartial {
		t.Fatalf("exit code %d, want %d", rep.ExitCode(nil), ExitPartial)
	}

	// The quarantine record (with stack) must be on disk...
	blob, err := os.ReadFile(filepath.Join(dir, cellName("cell-02")))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := decodeCell(blob)
	var onDisk quarantineData
	if !ok || r.kind != recQuarantined || json.Unmarshal(r.data, &onDisk) != nil ||
		onDisk.Reason != "panic" || !strings.Contains(onDisk.Stack, "jobs.") {
		t.Fatalf("journaled quarantine: ok=%v kind=%d %+v", ok, r.kind, onDisk)
	}

	// ...and a resume must re-run only the quarantined cell, healing the
	// grid once the panic is gone.
	fixed := grid(5)
	e2 := mustOpen(t, Options{Dir: dir, Digest: "d", Resume: true})
	rep2, err := e2.Run(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Resumed) != 4 || len(rep2.Executed) != 1 || rep2.Executed[0] != "cell-02" || !rep2.Complete() {
		t.Fatalf("healing resume: %+v", rep2)
	}
	// The healed cell's completion replaced its quarantine file.
	if done, ok := loadJournal(dir, "d"); !ok || string(done["cell-02"]) != "payload for cell-02" {
		t.Fatalf("healed cell on disk: ok=%v %q", ok, done["cell-02"])
	}
}

func TestInjectedPanicHook(t *testing.T) {
	e := mustOpen(t, Options{TestPanicKey: "cell-01"})
	rep, err := e.Run(context.Background(), grid(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Key != "cell-01" || rep.Quarantined[0].Reason != "panic" {
		t.Fatalf("report: %+v", rep)
	}
}

// TestJournalWriteFailureQuarantines: a cell whose journal write keeps
// failing retries the write in place, with growing jittered backoff,
// and is quarantined as "error" after maxRetries retries. Its Run
// executes once.
func TestJournalWriteFailureQuarantines(t *testing.T) {
	dir := t.TempDir()
	var slept []time.Duration
	e := mustOpen(t, Options{Dir: dir, Digest: "d",
		sleep: func(ctx context.Context, d time.Duration) { slept = append(slept, d) }})
	failSyncs(t, cellName("cell-00"), maxRetries+1)
	runs := 0
	cells := grid(1)
	cells[0].Run = func(ctx context.Context) ([]byte, error) { runs++; return []byte("lost"), nil }
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || rep.Retries != maxRetries || len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "error" {
		t.Fatalf("runs=%d retries=%d quarantined=%+v, want 1 run, %d retries, one error", runs, rep.Retries, rep.Quarantined, maxRetries)
	}
	if !atomicio.IsDiskFull(rep.Quarantined[0].Err) {
		t.Fatalf("quarantine error %v does not carry the write failure", rep.Quarantined[0].Err)
	}
	if len(slept) != maxRetries || slept[0] <= 0 || slept[0] == slept[1] {
		t.Fatalf("backoff sleeps = %v, want %d growing, jittered waits", slept, maxRetries)
	}
}

// failSyncs makes the next n fsyncs of the journal file name fail with
// ENOSPC, until the test ends.
func failSyncs(t *testing.T, name string, n int64) {
	t.Helper()
	var left atomic.Int64
	left.Store(n)
	prev := atomicio.SetHook(func(dest, stage string) error {
		if stage == atomicio.StageSync && filepath.Base(dest) == name && left.Add(-1) >= 0 {
			return syscall.ENOSPC
		}
		return nil
	})
	t.Cleanup(func() { atomicio.SetHook(prev) })
}

func TestNonTransientErrorQuarantinesWithoutRetry(t *testing.T) {
	cells := grid(2)
	cells[0].Run = func(ctx context.Context) ([]byte, error) {
		return nil, errors.New("deterministic model error")
	}
	e := mustOpen(t, Options{sleep: func(context.Context, time.Duration) {}})
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 0 || len(rep.Quarantined) != 1 || len(rep.Executed) != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestCellTimeout(t *testing.T) {
	cells := grid(3)
	cells[1].Run = func(ctx context.Context) ([]byte, error) {
		<-ctx.Done() // a hung solve that at least honours cancellation
		return nil, ctx.Err()
	}
	e := mustOpen(t, Options{CellTimeout: 50 * time.Millisecond})
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "timeout" {
		t.Fatalf("report: %+v", rep.Quarantined)
	}
	var te *ErrCellTimeout
	if !errors.As(rep.Quarantined[0].Err, &te) || te.Key != "cell-01" {
		t.Fatalf("typed timeout missing: %#v", rep.Quarantined[0].Err)
	}
	if !errors.Is(rep.Quarantined[0].Err, context.DeadlineExceeded) {
		t.Fatal("timeout should match context.DeadlineExceeded")
	}
	if len(rep.Executed) != 2 {
		t.Fatalf("grid did not finish around the timeout: %+v", rep)
	}
}

func TestCancelFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cause := &InterruptError{Sig: os.Interrupt}

	var completed atomic.Int64
	cells := grid(8)
	for i := range cells {
		inner := cells[i].Run
		cells[i].Run = func(c context.Context) ([]byte, error) {
			p, err := inner(c)
			if completed.Add(1) == 3 {
				cancel(cause) // hard in-process cancel after 3 cells
			}
			return p, err
		}
	}
	par1(t)
	e := mustOpen(t, Options{Dir: dir, Digest: "d"})
	rep, err := e.Run(ctx, cells)
	if err == nil || !errors.Is(err, cause) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped interrupt cause", err)
	}
	if rep.ExitCode(err) != ExitInterrupted {
		t.Fatalf("exit code %d, want %d", rep.ExitCode(err), ExitInterrupted)
	}
	done, ok := loadJournal(dir, "d")
	if !ok || len(done) != 3 {
		t.Fatalf("journal after cancel: ok=%v done=%d want 3", ok, len(done))
	}

	// Resume finishes exactly the remaining cells.
	e2 := mustOpen(t, Options{Dir: dir, Digest: "d", Resume: true})
	rep2, err := e2.Run(context.Background(), grid(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Resumed) != 3 || len(rep2.Executed) != 5 || !rep2.Complete() {
		t.Fatalf("resume: resumed=%d executed=%d", len(rep2.Resumed), len(rep2.Executed))
	}
}

func TestCorruptSegmentDegrades(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Digest: "d"})
	if _, err := e.Run(context.Background(), grid(4)); err != nil {
		t.Fatal(err)
	}
	files, _ := cellFiles(dir)
	blob, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-5] ^= 0xff // flip a payload bit
	if err := os.WriteFile(files[1], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	done, ok := loadJournal(dir, "d")
	if !ok {
		t.Fatal("one corrupt cell file must not kill the whole journal")
	}
	if len(done) != 3 {
		t.Fatalf("replayed %d cells, want 3 (corrupt one dropped)", len(done))
	}
	// And the engine resumes the survivors, re-running the lost cell.
	e2 := mustOpen(t, Options{Dir: dir, Digest: "d", Resume: true})
	rep, err := e2.Run(context.Background(), grid(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resumed) != 3 || len(rep.Executed) != 1 || !rep.Complete() {
		t.Fatalf("resume after corruption: %+v", rep)
	}
}

func TestMissingManifestColdStarts(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := mustOpen(t, Options{Dir: dir, Digest: "d", Resume: true})
	rep, err := e.Run(context.Background(), grid(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resumed) != 0 || len(rep.Executed) != 2 {
		t.Fatalf("corrupt manifest not treated as cold start: %+v", rep)
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	e := mustOpen(t, Options{})
	cells := grid(2)
	cells[1].Key = cells[0].Key
	if _, err := e.Run(context.Background(), cells); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

// par1 pins the worker pool to one worker for tests needing a
// deterministic completion order, restoring the default afterwards.
func par1(t *testing.T) {
	t.Helper()
	par.SetJobs(1)
	t.Cleanup(func() { par.SetJobs(0) })
}
