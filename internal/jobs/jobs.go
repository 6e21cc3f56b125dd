// Package jobs is the crash-safe sweep execution engine: it runs a grid
// of independent cells — (scheme, workload, variant) simulations — as
// journaled jobs, so a run killed by a crash, OOM or preemption resumes
// where it stopped instead of starting over.
//
// Durability: each completed cell is appended to an on-disk run journal
// (solvecache-style atomic temp+rename segments with checksummed
// records, pinned to a schema-versioned digest of the full sweep
// config). Reopening the journal with the same digest skips finished
// cells; a corrupt or stale journal silently degrades to a cold start.
// Because cell payloads are the cells' own deterministic output bytes,
// a resumed run's results are byte-identical to an uninterrupted one.
//
// Isolation: a panic inside one cell is captured (stack and all),
// converted to a typed *ErrCellPanic, recorded in the journal, and the
// cell is quarantined while the rest of the grid finishes. Transient
// failures retry with capped exponential backoff plus deterministic
// per-key jitter. A per-cell deadline and a stall watchdog (no progress
// heartbeat within WatchdogFactor x the trailing median cell time) flag
// hung solves instead of wedging the run.
//
// Shutdown: cancelling the run context (the CLIs cancel on SIGINT or
// SIGTERM with an *InterruptError cause) stops dispatch, lets in-flight
// cells finish or abort, flushes a final checkpoint segment, and
// returns the partial report.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/retry"
)

// Cell is one unit of the sweep grid: a stable key (e.g.
// "UDRVR+PR/mcf_m") and the function producing its result payload. Run
// must be deterministic in its payload bytes — the journal replays them
// verbatim on resume — and should call Beat(ctx) (or wire
// HeartbeatFunc(ctx) into its inner loop) to feed the stall watchdog.
type Cell struct {
	Key string
	Run func(ctx context.Context) ([]byte, error)
}

// CellFailure describes one quarantined cell.
type CellFailure struct {
	Key    string
	Reason string // "panic" | "timeout" | "error"
	Err    error  // typed: *ErrCellPanic, *ErrCellTimeout, or the cell's error
	Stack  string // non-empty for panics
}

// Report summarises one Run over a grid.
type Report struct {
	Done        map[string][]byte // key -> payload for every finished cell (fresh + resumed)
	Resumed     []string          // keys served from the on-disk journal, sorted
	Executed    []string          // keys run to completion by this call, sorted
	Retries     int               // transient re-attempts issued
	Stalled     []string          // keys flagged by the watchdog, sorted
	Quarantined []CellFailure     // cells isolated by panic/timeout/error, sorted by key
}

// Complete reports whether every requested cell finished.
func (r *Report) Complete() bool { return len(r.Quarantined) == 0 }

// ExitCode maps the report (and the Run error) onto the CLI exit-code
// contract: 0 complete, ExitPartial when quarantined cells remain,
// ExitInterrupted when the run context was cancelled.
func (r *Report) ExitCode(runErr error) int {
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			return ExitInterrupted
		}
		return 1
	}
	if !r.Complete() {
		return ExitPartial
	}
	return ExitOK
}

// Options configures an Engine. The zero value runs without a journal
// (no durability) with default retry and watchdog settings.
type Options struct {
	// Dir is the checkpoint directory; "" disables journaling entirely.
	Dir string
	// Resume loads an existing journal in Dir whose manifest matches
	// Digest instead of cold-starting. A missing, stale or corrupt
	// journal silently degrades to a cold start.
	Resume bool
	// Digest is the schema-versioned digest of the full sweep config;
	// the journal is only replayed for an identical digest.
	Digest string

	// CellTimeout bounds each attempt of one cell; 0 disables. An
	// exceeded deadline quarantines the cell (typed *ErrCellTimeout)
	// without failing the grid.
	CellTimeout time.Duration

	// MaxRetries bounds transient-failure re-attempts per cell
	// (negative: default 3; 0 after Open normalisation means none).
	MaxRetries int
	// Backoff is the initial retry delay (default 100ms), doubled per
	// attempt with +-50% deterministic per-key jitter, capped at
	// MaxBackoff (default 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Retryable optionally classifies additional errors (beyond
	// Transient-wrapped ones) as retryable.
	Retryable func(error) bool

	// WatchdogFactor flags a cell whose last heartbeat is older than
	// factor x the trailing median cell time (default 8). The flag is
	// advisory: metrics + report, never a kill.
	WatchdogFactor float64
	// WatchdogFloor is the minimum stall threshold (default 5s), so
	// fast grids don't flag scheduler noise.
	WatchdogFloor time.Duration
	// WatchdogPoll is the watchdog's sampling period (default 250ms).
	WatchdogPoll time.Duration

	// TestPanicKey makes the engine panic inside the named cell's
	// worker — the hook behind the quarantined-cell exit-code smoke
	// test (cmd/reramsim wires it to RERAMSIM_PANIC_CELL). Empty in
	// production.
	TestPanicKey string

	// sleep replaces the interruptible backoff sleep in tests.
	sleep func(ctx context.Context, d time.Duration)
}

// withDefaults normalises unset options.
func (o Options) withDefaults() Options {
	if o.MaxRetries < 0 {
		o.MaxRetries = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.WatchdogFactor <= 0 {
		o.WatchdogFactor = 8
	}
	if o.WatchdogFloor <= 0 {
		o.WatchdogFloor = 5 * time.Second
	}
	if o.WatchdogPoll <= 0 {
		o.WatchdogPoll = 250 * time.Millisecond
	}
	if o.sleep == nil {
		o.sleep = sleepCtx
	}
	return o
}

// Engine executes cell grids against one journal. Safe for sequential
// Run calls (a Suite priming several figures reuses one engine); cells
// completed by an earlier Run are skipped by later ones.
type Engine struct {
	opts Options
	j    *journal // nil when journaling is off

	mu       sync.Mutex
	done     map[string][]byte // key -> payload (disk-resumed + completed here)
	fromDisk map[string]bool   // keys loaded from the journal, not yet re-reported

	// prog tracks per-cell live state for the telemetry /progress
	// endpoint (own lock; never contends with execution).
	prog progressTracker
}

// Open prepares an engine. With a Dir it creates the directory, then
// either replays a matching journal (Resume) or cold-starts — removing
// stale segments and writing a fresh manifest. Every durable failure
// mode (missing dir contents, stale digest, corrupt manifest/segments)
// degrades to a cold start rather than an error; only an unusable
// directory fails.
func Open(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	e := &Engine{
		opts:     opts,
		done:     make(map[string][]byte),
		fromDisk: make(map[string]bool),
	}
	if opts.Dir == "" {
		return e, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: checkpoint dir: %w", err)
	}
	if opts.Resume {
		if done, _, next, ok := loadJournal(opts.Dir, opts.Digest); ok {
			e.done = done
			for k := range done {
				e.fromDisk[k] = true
			}
			e.j = &journal{dir: opts.Dir, nextSeg: next}
			return e, nil
		}
		obsColdStarts.Inc()
	}
	j, err := initJournal(opts.Dir, opts.Digest)
	if err != nil {
		return nil, fmt.Errorf("jobs: init journal: %w", err)
	}
	e.j = j
	return e, nil
}

// Resumed returns the journaled payload for key, if the engine loaded
// one at Open.
func (e *Engine) Resumed(key string) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.fromDisk[key] {
		return nil, false
	}
	p, ok := e.done[key]
	return p, ok
}

// Run executes the grid: journaled cells are skipped (their payloads
// reported as resumed), the rest fan out on the par worker pool with
// panic isolation, retries, deadlines and the stall watchdog. The
// returned error is non-nil only for a cancelled context (after the
// final checkpoint flush) or an invalid grid — quarantined cells are
// reported, not returned as errors.
func (e *Engine) Run(ctx context.Context, cells []Cell) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, stopSpan := obs.StartSpan(ctx, "jobs.grid")
	defer stopSpan()
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if c.Key == "" || c.Run == nil {
			return nil, fmt.Errorf("jobs: cell with empty key or nil Run")
		}
		if seen[c.Key] {
			return nil, fmt.Errorf("jobs: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = true
	}

	rep := &Report{Done: make(map[string][]byte, len(cells))}
	var pending []Cell
	progStates := make(map[string]CellState, len(cells))
	e.mu.Lock()
	for _, c := range cells {
		payload, ok := e.done[c.Key]
		if !ok {
			pending = append(pending, c)
			progStates[c.Key] = CellPending
			continue
		}
		rep.Done[c.Key] = payload
		if e.fromDisk[c.Key] {
			rep.Resumed = append(rep.Resumed, c.Key)
			obsResumed.Inc()
			progStates[c.Key] = CellResumed
		} else {
			progStates[c.Key] = CellCompleted
		}
	}
	e.mu.Unlock()
	for _, c := range cells {
		e.prog.observe(c.Key, progStates[c.Key])
	}

	var (
		repMu   sync.Mutex
		retries atomic.Int64
	)
	wd := newWatchdog(e.opts, func(key string) {
		obsStalled.Inc()
		e.prog.markStalled(key)
		repMu.Lock()
		rep.Stalled = append(rep.Stalled, key)
		repMu.Unlock()
	})
	if len(pending) > 0 {
		wd.start()
		defer wd.stop()
	}

	quarantine := func(key, reason string, err error, stack string) error {
		obsQuarantined.Inc()
		e.prog.markQuarantined(key, reason)
		q := quarantineData{Reason: reason, Error: err.Error(), Stack: stack}
		data, merr := marshalQuarantine(q)
		if merr == nil {
			// Journal I/O failures here are deliberately non-fatal: the
			// quarantine record is advisory (a missing one only means
			// the cell re-runs on resume).
			_ = e.j.append(record{kind: recQuarantined, key: key, data: data})
		}
		repMu.Lock()
		rep.Quarantined = append(rep.Quarantined, CellFailure{Key: key, Reason: reason, Err: err, Stack: stack})
		repMu.Unlock()
		return nil // the rest of the grid keeps running
	}

	ferr := par.ForEach(ctx, len(pending), func(i int) error {
		c := pending[i]
		for attempt := 0; ; attempt++ {
			payload, err := e.attempt(ctx, c, wd)
			if err == nil {
				if jerr := e.commit(c.Key, payload); jerr != nil {
					err = jerr // journal append failed; falls through to retry policy
				} else {
					repMu.Lock()
					rep.Done[c.Key] = payload
					rep.Executed = append(rep.Executed, c.Key)
					repMu.Unlock()
					obsCompleted.Inc()
					e.prog.markDone(c.Key)
					return nil
				}
			}
			if cerr := ctx.Err(); cerr != nil {
				// The whole run is being cancelled; report the cause,
				// don't quarantine the interrupted cell.
				if cause := context.Cause(ctx); cause != nil {
					return cause
				}
				return cerr
			}
			var pe *ErrCellPanic
			if errors.As(err, &pe) {
				obsPanicked.Inc()
				return quarantine(c.Key, "panic", pe, pe.Stack)
			}
			var te *ErrCellTimeout
			if errors.As(err, &te) {
				obsTimeouts.Inc()
				return quarantine(c.Key, "timeout", te, "")
			}
			if attempt < e.opts.MaxRetries && (IsTransient(err) || (e.opts.Retryable != nil && e.opts.Retryable(err))) {
				obsRetried.Inc()
				retries.Add(1)
				e.prog.addRetry()
				e.opts.sleep(ctx, backoffDelay(e.opts, c.Key, attempt))
				continue
			}
			return quarantine(c.Key, "error", err, "")
		}
	})

	// Final checkpoint: whatever the outcome, push buffered records to
	// disk before handing control back (the graceful SIGINT/SIGTERM
	// path relies on this).
	if e.j != nil {
		_ = e.j.flush()
	}

	rep.Retries = int(retries.Load())
	sort.Strings(rep.Resumed)
	sort.Strings(rep.Executed)
	sort.Strings(rep.Stalled)
	sort.Slice(rep.Quarantined, func(i, j int) bool { return rep.Quarantined[i].Key < rep.Quarantined[j].Key })

	if ferr != nil {
		// Only cancellation propagates: worker errors were quarantined.
		return rep, fmt.Errorf("jobs: run interrupted: %w", ferr)
	}
	return rep, nil
}

// commit journals and caches one completed cell. Journal I/O retries
// ride the normal transient path of the caller.
func (e *Engine) commit(key string, payload []byte) error {
	if err := e.j.append(record{kind: recCompleted, key: key, data: payload}); err != nil {
		return err
	}
	e.mu.Lock()
	e.done[key] = payload
	delete(e.fromDisk, key)
	e.mu.Unlock()
	return nil
}

// attempt executes one try of a cell under its deadline, with the
// heartbeat bound into the context and a panic converted to
// *ErrCellPanic.
func (e *Engine) attempt(ctx context.Context, c Cell, wd *watchdog) (payload []byte, err error) {
	cctx := ctx
	if e.opts.CellTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeoutCause(ctx, e.opts.CellTimeout,
			&ErrCellTimeout{Key: c.Key, Timeout: e.opts.CellTimeout})
		defer cancel()
	}
	bs := newBeatState()
	cctx = context.WithValue(cctx, beatKeyType{}, bs)
	if obs.SpansEnabled() { // dynamic name: only build it when a sink is on
		var stop func()
		cctx, stop = obs.StartSpan(cctx, "cell:"+c.Key)
		defer stop()
	}
	start := time.Now()
	wd.register(c.Key, bs)
	e.prog.markRunning(c.Key, bs)
	defer func() {
		wd.unregister(c.Key, time.Since(start))
		if v := recover(); v != nil {
			payload, err = nil, &ErrCellPanic{Key: c.Key, Value: v, Stack: string(debug.Stack())}
		}
	}()
	if e.opts.TestPanicKey == c.Key {
		panic("jobs: injected test panic for cell " + c.Key)
	}
	payload, err = c.Run(cctx)
	if err != nil && ctx.Err() == nil && cctx.Err() != nil {
		// The attempt's own deadline fired (the parent is alive):
		// surface the typed timeout installed as the cancellation cause.
		if cause := context.Cause(cctx); cause != nil {
			err = cause
		}
	}
	return payload, err
}

// backoffDelay computes the capped exponential backoff with +-50%
// jitter. The policy — deterministic per-(key, attempt) jitter, no
// global RNG — lives in internal/retry, shared with the reramd daemon's
// Retry-After hints.
func backoffDelay(o Options, key string, attempt int) time.Duration {
	return retry.Policy{Initial: o.Backoff, Max: o.MaxBackoff}.Delay(key, attempt)
}

// sleepCtx sleeps for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) { retry.Sleep(ctx, d) }
