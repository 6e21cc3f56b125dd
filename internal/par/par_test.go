package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestJobsDefaultAndOverride(t *testing.T) {
	SetJobs(0)
	if got := jobs(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default jobs() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetJobs(3)
	if got := jobs(); got != 3 {
		t.Errorf("jobs() = %d after SetJobs(3)", got)
	}
	SetJobs(-5)
	if got := jobs(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative SetJobs should restore the default, got %d", got)
	}
	SetJobs(0)
}

func TestForEachRunsEveryItemByIndex(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		SetJobs(jobs)
		const n = 100
		out := make([]int, n)
		err := ForEach(context.Background(), n, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d", jobs, i, v)
			}
		}
	}
	SetJobs(0)
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 0, func(int) error { return errors.New("never") }); err != nil {
		t.Error(err)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	SetJobs(4)
	defer SetJobs(0)
	err := ForEach(context.Background(), 8, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("item %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	// Items 1,3,5,7 fail; whichever subset ran, the reported error is the
	// smallest failed index among them — with 4 workers item 1 always runs.
	if err.Error() != "item 1" {
		t.Errorf("err = %v, want item 1", err)
	}
}

func TestForEachStopsDispatchAfterError(t *testing.T) {
	SetJobs(2)
	defer SetJobs(0)
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEach(context.Background(), 1000, func(i int) error {
		ran.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n > 16 {
		t.Errorf("dispatch did not stop after failure: %d items ran", n)
	}
}

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		SetJobs(jobs)
		var ran atomic.Int64
		err := ForEach(ctx, 50, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
	}
	SetJobs(0)
}

func TestForEachBoundsWorkers(t *testing.T) {
	SetJobs(3)
	defer SetJobs(0)
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), 64, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("observed %d concurrent tasks with jobs=3", p)
	}
}

func TestGroupDeduplicatesConcurrentCalls(t *testing.T) {
	var g Group[string, int]
	var runs atomic.Int64
	release := make(chan struct{})
	const callers = 16

	var wg, started sync.WaitGroup
	results := make([]int, callers)
	shared := make([]bool, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		started.Add(1)
		go func(c int) {
			defer wg.Done()
			started.Done()
			v, sh, err := g.Do("k", func() (int, error) {
				runs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[c], shared[c] = v, sh
		}(c)
	}
	// Let the callers pile onto the in-flight key, then release it. The
	// flight cannot complete before release closes, so every caller that
	// has started joins it rather than starting a second run.
	started.Wait()
	time.Sleep(5 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times for one key, want 1", n)
	}
	nShared := 0
	for c := range results {
		if results[c] != 42 {
			t.Errorf("caller %d got %d", c, results[c])
		}
		if shared[c] {
			nShared++
		}
	}
	if nShared != callers-1 {
		t.Errorf("%d callers shared the flight, want %d", nShared, callers-1)
	}
}

func TestGroupDistinctKeysRunIndependently(t *testing.T) {
	var g Group[int, int]
	var runs atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, _, err := g.Do(k, func() (int, error) {
				runs.Add(1)
				return k * 10, nil
			})
			if err != nil || v != k*10 {
				t.Errorf("key %d: v=%d err=%v", k, v, err)
			}
		}(k)
	}
	wg.Wait()
	if n := runs.Load(); n != 8 {
		t.Errorf("fn ran %d times for 8 distinct keys", n)
	}
}

func TestGroupForgetsCompletedKeys(t *testing.T) {
	var g Group[string, int]
	var runs int
	for i := 0; i < 3; i++ {
		if _, _, err := g.Do("k", func() (int, error) { runs++; return runs, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 3 {
		t.Errorf("sequential calls ran fn %d times, want 3 (no caching inside Group)", runs)
	}
}

func TestGroupPropagatesError(t *testing.T) {
	var g Group[string, int]
	boom := errors.New("boom")
	_, _, err := g.Do("k", func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

// TestMemoKeepsValuesNotErrors: a Memo builds a key once and keeps the
// value, while a failed build is returned and built again next time.
func TestMemoKeepsValuesNotErrors(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("boom")
	builds := 0
	build := func() (int, error) {
		builds++
		if builds == 1 {
			return 0, boom
		}
		return builds, nil
	}
	if _, err := m.Get("k", build); !errors.Is(err, boom) {
		t.Fatalf("first Get: err = %v, want boom", err)
	}
	for i := 0; i < 2; i++ {
		if v, err := m.Get("k", build); err != nil || v != 2 {
			t.Fatalf("Get after a failed build = %d, %v; want 2, nil", v, err)
		}
	}
	if builds != 2 {
		t.Errorf("%d builds, want 2: one failed, one kept", builds)
	}
	if vs := m.Values(); len(vs) != 1 || vs[0] != 2 {
		t.Errorf("Values() = %v, want [2]", vs)
	}
}

// TestForEachPanicBecomesError: a panicking task must surface as a typed
// *PanicError (with the item index and a captured stack) instead of
// crashing the process, at any worker count.
func TestForEachPanicBecomesError(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		SetJobs(jobs)
		err := ForEach(context.Background(), 8, func(i int) error {
			if i == 3 {
				panic("boom")
			}
			return nil
		})
		SetJobs(0)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("jobs=%d: err = %v, want *PanicError", jobs, err)
		}
		if pe.Index != 3 || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Fatalf("jobs=%d: PanicError = index %d value %v stack %d bytes",
				jobs, pe.Index, pe.Value, len(pe.Stack))
		}
	}
}

// TestForEachCancelCause: cancellation must wrap context.Cause, so a
// caller can distinguish a SIGINT-style custom cause (and a deadline)
// from a worker error, while errors.Is(err, context.Canceled) still
// holds for a plain cancel.
func TestForEachCancelCause(t *testing.T) {
	cause := errors.New("operator interrupt")
	for _, jobs := range []int{1, 4} {
		SetJobs(jobs)
		ctx, cancel := context.WithCancelCause(context.Background())
		cancel(cause)
		err := ForEach(ctx, 4, func(i int) error { return nil })
		SetJobs(0)
		if !errors.Is(err, cause) {
			t.Fatalf("jobs=%d: err = %v, want wrapped cause %v", jobs, err, cause)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("jobs=%d: custom cause misreported as deadline", jobs)
		}
	}

	// A deadline surfaces as context.DeadlineExceeded via the cause.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if err := ForEach(ctx, 4, func(i int) error { return nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v, want DeadlineExceeded", err)
	}
}
