// Package par is the simulator's bounded parallel-execution layer: a
// GOMAXPROCS-sized, context-aware worker pool (ForEach), a per-key
// in-flight deduplicator (Group) and a per-key cache built on it (Memo).
//
// Every use site in the repository fans out work whose items are
// independent and whose results are collected by index — never by map
// iteration or completion order — so parallel output is byte-identical
// to a serial (-jobs=1) run. The pool publishes its activity through
// internal/obs ("par.*" series) so -metrics dumps show how much work ran
// concurrently.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"reramsim/internal/obs"
)

// configuredJobs holds the -jobs override; 0 selects GOMAXPROCS.
var configuredJobs atomic.Int64

// Pool observability: batches and tasks executed, the resolved worker
// count, and the high-water mark of concurrently running tasks.
var (
	obsBatches     = obs.C("par.batches")
	obsTasks       = obs.C("par.tasks")
	obsJobs        = obs.G("par.jobs")
	obsInflightMax = obs.G("par.inflight_max")
	obsDedup       = obs.C("par.group.deduped")
)

// SetJobs bounds the worker pool at n workers. n <= 0 restores the
// default (GOMAXPROCS). cmd/reramsim and cmd/figures wire -jobs here.
func SetJobs(n int) {
	if n < 0 {
		n = 0
	}
	configuredJobs.Store(int64(n))
}

// jobs returns the resolved worker bound: the SetJobs override when set,
// GOMAXPROCS otherwise. It is always >= 1.
func jobs() int {
	if n := int(configuredJobs.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a panic that escaped a ForEach task, converted into an
// ordinary error so one exploding item aborts its batch instead of
// crashing the whole process. The jobs engine never sees one: it
// recovers each cell's panic itself (Engine.execute) and quarantines
// the cell.
type PanicError struct {
	Index int    // item index whose fn panicked
	Value any    // the recovered panic value
	Stack []byte // goroutine stack captured at the recovery point
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v", p.Index, p.Value)
}

// runTask executes fn(i), converting a panic into a *PanicError.
func runTask(fn func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// cancelErr reports a batch stopped by its context. The returned error
// wraps context.Cause(ctx) — the deadline error, the SIGINT cause
// installed by the CLI, or whatever a caller passed to its cancel
// function — so callers can tell those apart from a real worker error
// while errors.Is(err, context.Canceled/DeadlineExceeded) keeps working.
func cancelErr(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	cause := context.Cause(ctx)
	if cause == nil {
		cause = err
	}
	return fmt.Errorf("par: batch cancelled: %w", cause)
}

// ForEach runs fn(i) for every i in [0, n) on up to jobs() workers.
//
// Determinism: items are identified by index, so callers that write
// results into the i-th slot of a preallocated slice get output
// independent of scheduling. When several items fail, the error of the
// lowest index that actually ran is returned; once any item fails (or
// ctx is cancelled) no new items are dispatched, but in-flight items
// finish. A panic inside fn surfaces as a *PanicError for its index.
// Cancellation surfaces as an error wrapping context.Cause(ctx). With
// one worker the items run inline, in order, on the calling goroutine —
// exactly the serial loop it replaces.
func ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := jobs()
	if workers > n {
		workers = n
	}
	obsBatches.Inc()
	obsJobs.Set(float64(workers))

	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := cancelErr(ctx); err != nil {
				return err
			}
			obsTasks.Inc()
			if errs[i] = runTask(fn, i); errs[i] != nil {
				return errs[i]
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next item index to dispatch
		done     atomic.Int64 // items completed without error
		stop     atomic.Bool  // set on first failure or cancellation
		inflight atomic.Int64
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				obsInflightMax.SetMax(float64(inflight.Add(1)))
				obsTasks.Inc()
				err := runTask(fn, i)
				inflight.Add(-1)
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return errs[i]
		}
	}
	// Cancellation may have stopped dispatch before every item ran; only
	// a complete batch reports success.
	if int(done.Load()) < n {
		return cancelErr(ctx)
	}
	return nil
}

// Group deduplicates concurrent calls by key: the first caller of a key
// runs fn while later callers with the same key wait and share its
// result. Once the call completes the key is forgotten, so a later
// (non-overlapping) call runs fn again — callers layer their own result
// cache on top. The zero Group is ready to use.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do runs fn for key, unless an identical call is already in flight, in
// which case it blocks until that call completes and returns its result.
// The second return reports whether this caller shared another caller's
// run instead of executing fn itself.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (V, bool, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*flight[V])
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		obsDedup.Inc()
		<-f.done
		return f.v, true, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.v, f.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.v, false, f.err
}

// Memo holds one value per key, built on first use: concurrent first
// uses of a key share one build through a Group, and a failed build is
// not kept, so a later Get builds again. The zero Memo is ready to use.
type Memo[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]V
	flight Group[K, V]
}

func (c *Memo[K, V]) load(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

// Get returns k's value, building it with build on first use.
func (c *Memo[K, V]) Get(k K, build func() (V, error)) (V, error) {
	if v, ok := c.load(k); ok {
		return v, nil
	}
	v, _, err := c.flight.Do(k, func() (V, error) {
		// Re-check: this flight may start after a previous one for the
		// same key already stored its value.
		if v, ok := c.load(k); ok {
			return v, nil
		}
		v, err := build()
		if err != nil {
			return v, err
		}
		c.mu.Lock()
		if c.m == nil {
			c.m = make(map[K]V)
		}
		c.m[k] = v
		c.mu.Unlock()
		return v, nil
	})
	return v, err
}

// Values returns every stored value, in no particular order.
func (c *Memo[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, len(c.m))
	for _, v := range c.m {
		out = append(out, v)
	}
	return out
}
