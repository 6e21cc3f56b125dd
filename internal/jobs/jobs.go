// Package jobs is the crash-safe sweep execution engine: it runs a grid
// of independent cells — one simulation each, a scheme on a workload
// under one array and memory configuration — as journaled jobs, so a run killed by a crash, OOM or preemption resumes
// where it stopped instead of starting over.
//
// Durability: each finished cell is written to its own file in the
// checkpoint directory (atomicio's sealed container, written by temp
// file, fsync and rename), next to a manifest pinning a schema-versioned
// digest of the full sweep config. Reopening the journal with the same
// digest skips finished cells; a stale manifest cold-starts, and a
// damaged cell file only re-runs its cell. Because cell payloads are
// the cells' own deterministic output bytes, a resumed run's results
// are byte-identical to an uninterrupted one.
//
// Isolation: a panic inside one cell is captured (stack and all),
// converted to a typed *ErrCellPanic, recorded in the journal, and the
// cell is quarantined while the rest of the grid finishes. A failed
// journal write retries in place up to 3 times with capped exponential
// backoff plus deterministic per-key jitter; a cell's code runs once. A
// per-cell deadline cancels the cell's context; the simulation polls it
// inside its event loop, so an exceeded cell stops and is quarantined
// instead of wedging the run.
//
// Shutdown: cancelling the run context (the CLIs cancel on SIGINT or
// SIGTERM with an *InterruptError cause) stops dispatch, lets in-flight
// cells finish or abort, and returns the partial report; every cell
// that finished is already on disk.
package jobs

import (
	"context"
	"encoding/json"
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
// "UDRVR+PR/mcf_m", or "UDRVR+PR/mcf_m@" plus a config digest for a cell
// off the sweep's own configs) and the function producing its result
// payload. Run
// must be deterministic in its payload bytes — the journal replays them
// verbatim on resume — and should return promptly once ctx is done: the
// context carries the per-cell deadline and the run's cancellation.
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
	Resumed     []string          // keys served from the on-disk journal, first reported by this call, sorted
	Executed    []string          // keys run to completion by this call, sorted
	Retries     int               // journal-write retries issued
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

// maxRetries bounds the retries of one cell's journal write, the same
// for every engine; the backoff between them is retry.Delay.
const maxRetries = 3

// Options configures an Engine. The zero value runs without a journal
// (no durability).
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

	// CellTimeout bounds each cell's run; 0 disables. An exceeded
	// deadline quarantines the cell (typed *ErrCellTimeout) without
	// failing the grid.
	CellTimeout time.Duration

	// TestPanicKey makes the engine panic inside the named cell's
	// worker — the hook behind the quarantined-cell exit-code smoke
	// test (cmd/reramsim wires it to RERAMSIM_PANIC_CELL). Empty in
	// production.
	TestPanicKey string

	// Tests replace the interruptible backoff sleep between journal
	// write retries.
	sleep func(ctx context.Context, d time.Duration)
}

// withDefaults fills the fields tests may override.
func (o Options) withDefaults() Options {
	if o.sleep == nil {
		o.sleep = retry.Sleep
	}
	return o
}

// Engine executes cell grids against one journal. Safe for sequential
// Run calls (a Suite priming several figures reuses one engine); cells
// completed by an earlier Run are skipped by later ones.
type Engine struct {
	opts Options

	mu       sync.Mutex
	done     map[string][]byte // key -> payload (disk-resumed + completed here)
	fromDisk map[string]bool   // keys loaded from the journal, not yet reported
}

// Open prepares an engine. With a Dir it creates the directory, then
// either replays a matching journal (Resume) or cold-starts — removing
// stale cell files and writing a fresh manifest. Every durable failure
// mode (missing dir contents, stale digest or schema, corrupt manifest
// or cell files) degrades to a cold start or a re-run rather than an
// error; only an unusable directory fails.
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
		if done, ok := loadJournal(opts.Dir, opts.Digest); ok {
			e.done = done
			for k := range done {
				e.fromDisk[k] = true
			}
			return e, nil
		}
		obsColdStarts.Inc()
	}
	if err := initJournal(opts.Dir, opts.Digest); err != nil {
		return nil, fmt.Errorf("jobs: init journal: %w", err)
	}
	return e, nil
}

// Run executes the grid: journaled cells are skipped (their payloads
// reported as resumed by the first Run that lists them), the rest fan
// out on the par worker pool with panic isolation and deadlines. The
// returned error is non-nil only for a cancelled context or an invalid
// grid — quarantined cells are reported, not returned as errors.
//
// Run raises jobs.cells as it starts, by the cells it dispatches plus
// the journaled cells it reports, so a watcher of /metrics sees the
// grid's size before its cells finish.
func (e *Engine) Run(ctx context.Context, cells []Cell) (*Report, error) {
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
	e.mu.Lock()
	for _, c := range cells {
		payload, ok := e.done[c.Key]
		if !ok {
			pending = append(pending, c)
			continue
		}
		rep.Done[c.Key] = payload
		if e.fromDisk[c.Key] {
			delete(e.fromDisk, c.Key) // a later grid listing it reports it as done, not resumed
			rep.Resumed = append(rep.Resumed, c.Key)
		}
	}
	e.mu.Unlock()
	obsCells.Add(uint64(len(pending) + len(rep.Resumed)))
	obsResumed.Add(uint64(len(rep.Resumed)))

	var (
		repMu   sync.Mutex
		retries atomic.Int64
	)
	quarantine := func(key, reason string, err error, stack string) error {
		obsQuarantined.Inc()
		if data, merr := json.Marshal(quarantineData{Reason: reason, Error: err.Error(), Stack: stack}); merr == nil {
			// Deliberately non-fatal: the quarantine record is advisory
			// (a missing one changes nothing, since quarantined cells
			// re-run on resume).
			_ = e.journal(record{kind: recQuarantined, key: key, data: data})
		}
		repMu.Lock()
		rep.Quarantined = append(rep.Quarantined, CellFailure{Key: key, Reason: reason, Err: err, Stack: stack})
		repMu.Unlock()
		return nil // the rest of the grid keeps running
	}

	ferr := par.ForEach(ctx, len(pending), func(i int) error {
		c := pending[i]
		payload, err := e.execute(ctx, c)
		if err == nil {
			err = e.commit(ctx, c.Key, payload, &retries)
		}
		if err == nil {
			repMu.Lock()
			rep.Done[c.Key] = payload
			rep.Executed = append(rep.Executed, c.Key)
			repMu.Unlock()
			obsCompleted.Inc()
			return nil
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
		return quarantine(c.Key, "error", err, "")
	})

	rep.Retries = int(retries.Load())
	sort.Strings(rep.Resumed)
	sort.Strings(rep.Executed)
	sort.Slice(rep.Quarantined, func(i, j int) bool { return rep.Quarantined[i].Key < rep.Quarantined[j].Key })

	if ferr != nil {
		// Only cancellation propagates: worker errors were quarantined.
		return rep, fmt.Errorf("jobs: run interrupted: %w", ferr)
	}
	return rep, nil
}

// commit journals and caches one completed cell. A failed journal write
// (a full disk, say) retries in place up to maxRetries times, waiting
// retry.Delay between tries and counting each retry; the cell's code
// never runs again for it.
func (e *Engine) commit(ctx context.Context, key string, payload []byte, retries *atomic.Int64) error {
	for attempt := 0; ; attempt++ {
		err := e.journal(record{kind: recCompleted, key: key, data: payload})
		if err == nil {
			break
		}
		if attempt == maxRetries || ctx.Err() != nil {
			return err
		}
		obsRetried.Inc()
		retries.Add(1)
		e.opts.sleep(ctx, retry.Delay(key, attempt))
	}
	e.mu.Lock()
	e.done[key] = payload
	e.mu.Unlock()
	return nil
}

// execute runs a cell under its deadline, with a panic converted to
// *ErrCellPanic.
func (e *Engine) execute(ctx context.Context, c Cell) (payload []byte, err error) {
	cctx := ctx
	if e.opts.CellTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeoutCause(ctx, e.opts.CellTimeout,
			&ErrCellTimeout{Key: c.Key, Timeout: e.opts.CellTimeout})
		defer cancel()
	}
	if obs.SpansEnabled() { // dynamic name: only build it when a sink is on
		var stop func()
		cctx, stop = obs.StartSpan(cctx, "cell:"+c.Key)
		defer stop()
	}
	defer func() {
		if v := recover(); v != nil {
			payload, err = nil, &ErrCellPanic{Key: c.Key, Value: v, Stack: string(debug.Stack())}
		}
	}()
	if e.opts.TestPanicKey == c.Key {
		panic("jobs: injected test panic for cell " + c.Key)
	}
	payload, err = c.Run(cctx)
	if err != nil && ctx.Err() == nil && cctx.Err() != nil {
		// The cell's own deadline fired (the parent is alive):
		// surface the typed timeout installed as the cancellation cause.
		if cause := context.Cause(cctx); cause != nil {
			err = cause
		}
	}
	return payload, err
}
