package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"reramsim/internal/jobs"
	"reramsim/internal/memsys"
	"reramsim/internal/obs"
	"reramsim/internal/trace"
)

// stopSuite returns a fresh suite with the Base scheme prebuilt, so a
// Base/mcf_m cell spends its time in the simulation alone. At 20,000
// accesses that run takes ~0.7 s uninterrupted on a 2-vCPU host, over
// 20x each deadline below.
func stopSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(20000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scheme("Base"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStopCellTimeoutQuarantines: the engine's per-cell deadline stops
// the running simulation inside its event loop, and the cell is
// quarantined as a typed timeout instead of completing late.
func TestStopCellTimeoutQuarantines(t *testing.T) {
	s := stopSuite(t)
	eng, err := jobs.Open(jobs.Options{CellTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunGridContext(context.Background(), eng, []SimPair{{Scheme: "Base", Workload: "mcf_m"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "timeout" {
		t.Fatalf("quarantined = %+v, executed = %v; want Base/mcf_m quarantined as a timeout",
			rep.Quarantined, rep.Executed)
	}
	var te *jobs.ErrCellTimeout
	if !errors.As(rep.Quarantined[0].Err, &te) {
		t.Fatalf("quarantine error %v (%T) is not a *jobs.ErrCellTimeout", rep.Quarantined[0].Err, rep.Quarantined[0].Err)
	}
}

// TestStopSharedSimReentered: two SimContext calls share one key. The
// first caller's 30 ms deadline stops the shared run, and only that
// caller sees the deadline; the second, under context.Background(),
// re-enters the flight and gets the result of an uninterrupted
// simulation of the same scheme, workload and config.
func TestStopSharedSimReentered(t *testing.T) {
	obs.SetEnabled(true) // par.group.deduped proves the second call joined the flight
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})
	s := stopSuite(t)
	before := obs.Default().Snapshot()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	first := make(chan error, 1)
	go func() {
		_, err := s.SimContext(ctx, "Base", "mcf_m")
		first <- err
	}()
	time.Sleep(10 * time.Millisecond) // the first call owns the flight by now
	got, err := s.SimContext(context.Background(), "Base", "mcf_m")
	if err != nil {
		t.Fatalf("second caller got %v, want its own result", err)
	}
	if err := <-first; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first caller got %v, want its own deadline", err)
	}
	if d := obs.Default().Snapshot().Delta(before).Counters["par.group.deduped"]; d == 0 {
		t.Fatal("the second call never joined the first call's flight")
	}

	// The scheme's cost table is warm by now, so the reference run is
	// cheap; warm or cold, pricing returns the same bits.
	sc, err := s.Scheme("Base")
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.ByName("mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	want, err := memsys.Simulate(sc, b, s.MemCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-entered result differs from an uninterrupted simulation:\n got %+v\nwant %+v", got, want)
	}
}

// TestStopReliabilitySweepAborts: a deadline that fires inside a
// running simulation aborts a reliability sweep the way one between
// simulations does: no error, Aborted set, and no row for the stopped
// run.
func TestStopReliabilitySweepAborts(t *testing.T) {
	s := stopSuite(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rep, err := s.ReliabilitySweep(ctx, "margin", "mcf_m", []string{"Base"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted || len(rep.Rows) != 0 {
		t.Fatalf("stopped sweep: aborted=%v rows=%d, want aborted with no rows", rep.Aborted, len(rep.Rows))
	}
}
