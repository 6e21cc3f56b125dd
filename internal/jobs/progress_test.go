package jobs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestProgressLifecycle drives a small grid through the engine with a
// gate holding one cell open, checking the mid-run and final progress
// snapshots: states, counts, fraction, ETA and epoch movement.
func TestProgressLifecycle(t *testing.T) {
	eng, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	entered := make(chan struct{})
	cells := []Cell{
		{Key: "fast", Run: func(ctx context.Context) ([]byte, error) { return []byte("a"), nil }},
		{Key: "slow", Run: func(ctx context.Context) ([]byte, error) {
			close(entered)
			<-release
			return []byte("b"), nil
		}},
	}

	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), cells)
		done <- err
	}()

	<-entered
	// The slow cell is in flight; poll until the fast one has finished.
	var mid Progress
	for deadline := time.Now().Add(5 * time.Second); ; {
		mid = eng.Progress()
		if mid.Completed >= 1 && mid.Running >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mid-run progress never showed 1 completed + 1 running: %+v", mid)
		}
		time.Sleep(time.Millisecond)
	}
	if mid.Total != 2 {
		t.Errorf("mid Total = %d, want 2", mid.Total)
	}
	if mid.Fraction != 0.5 {
		t.Errorf("mid Fraction = %g, want 0.5", mid.Fraction)
	}
	if mid.MedianCellSec <= 0 {
		t.Errorf("mid MedianCellSec = %g, want > 0", mid.MedianCellSec)
	}
	if mid.ETASec <= 0 {
		t.Errorf("mid ETASec = %g, want > 0 with one cell remaining", mid.ETASec)
	}
	states := map[string]CellProgress{}
	for _, c := range mid.Cells {
		states[c.Key] = c
	}
	if states["fast"].State != CellCompleted {
		t.Errorf("fast state = %s, want completed", states["fast"].State)
	}
	if states["slow"].State != CellRunning {
		t.Errorf("slow state = %s, want running", states["slow"].State)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	fin := eng.Progress()
	if fin.Completed != 2 || fin.Running != 0 || fin.Pending != 0 {
		t.Errorf("final progress = %+v, want 2 completed", fin)
	}
	if fin.Fraction != 1 {
		t.Errorf("final Fraction = %g, want 1", fin.Fraction)
	}
	if fin.ETASec != 0 {
		t.Errorf("final ETASec = %g, want 0 when nothing remains", fin.ETASec)
	}
	if fin.Epoch <= mid.Epoch {
		t.Errorf("epoch did not advance: mid %d, final %d", mid.Epoch, fin.Epoch)
	}
}

// TestProgressQuarantineAndRetries: failures surface as quarantined
// state with a reason, and journal-write retries count.
func TestProgressQuarantineAndRetries(t *testing.T) {
	eng, err := Open(Options{Dir: t.TempDir(), Digest: "d", sleep: func(context.Context, time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	failSyncs(t, cellName("flaky"), 2)
	cells := []Cell{
		{Key: "flaky", Run: func(ctx context.Context) ([]byte, error) { return []byte("ok"), nil }},
		{Key: "dead", Run: func(ctx context.Context) ([]byte, error) {
			return nil, errors.New("hard failure")
		}},
	}
	rep, err := eng.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("grid with a dead cell reported complete")
	}
	p := eng.Progress()
	if p.Retries != 2 {
		t.Errorf("Retries = %d, want 2", p.Retries)
	}
	states := map[string]CellProgress{}
	for _, c := range p.Cells {
		states[c.Key] = c
	}
	if got := states["dead"]; got.State != CellQuarantined || got.Reason != "error" {
		t.Errorf("dead cell = %+v, want quarantined/error", got)
	}
	if got := states["flaky"]; got.State != CellCompleted || got.Attempts != 1 {
		t.Errorf("flaky cell = %+v, want completed after 1 attempt", got)
	}
	if p.Quarantined != 1 || p.Fraction != 1 {
		t.Errorf("progress = %+v, want 1 quarantined, fraction 1", p)
	}
}

// TestProgressResumedCells: journal-served cells appear as resumed.
func TestProgressResumedCells(t *testing.T) {
	dir := t.TempDir()
	mk := func(resume bool) *Engine {
		eng, err := Open(Options{Dir: dir, Resume: resume, Digest: "d1"})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	cells := []Cell{
		{Key: "a", Run: func(ctx context.Context) ([]byte, error) { return []byte("a"), nil }},
		{Key: "b", Run: func(ctx context.Context) ([]byte, error) { return []byte("b"), nil }},
	}
	if _, err := mk(false).Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	eng := mk(true)
	if _, err := eng.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	p := eng.Progress()
	if p.Resumed != 2 || p.Completed != 2 {
		t.Errorf("progress after resume = %+v, want 2 resumed", p)
	}
	for _, c := range p.Cells {
		if c.State != CellResumed {
			t.Errorf("cell %s state = %s, want resumed", c.Key, c.State)
		}
	}
}
