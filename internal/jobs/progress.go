package jobs

import (
	"sort"
	"sync"
	"time"

	"reramsim/internal/par"
)

// Live progress export: the engine tracks every cell's state as it
// moves through a Run so an external observer (the telemetry server's
// /progress endpoint) can render completion, per-cell status, retry
// counts and a trailing-median ETA without touching the engine's
// execution state. Progress() is safe to call from any goroutine at any
// time, including mid-Run.

// CellState is one cell's position in the execution lifecycle.
type CellState string

const (
	CellPending     CellState = "pending"
	CellRunning     CellState = "running"
	CellCompleted   CellState = "completed"
	CellResumed     CellState = "resumed" // completed via the on-disk journal
	CellQuarantined CellState = "quarantined"
)

// CellProgress is one cell's live status.
type CellProgress struct {
	Key      string    `json:"key"`
	State    CellState `json:"state"`
	Attempts int       `json:"attempts,omitempty"`
	// TookSec is the cell's wall-clock execution time once finished.
	TookSec float64 `json:"tookSec,omitempty"`
	// Reason is the quarantine reason ("panic" | "timeout" | "error").
	Reason string `json:"reason,omitempty"`
}

// Progress is a point-in-time view of the engine's grid execution.
type Progress struct {
	Total       int `json:"total"`
	Pending     int `json:"pending"`
	Running     int `json:"running"`
	Completed   int `json:"completed"` // includes resumed cells
	Resumed     int `json:"resumed"`
	Quarantined int `json:"quarantined"`
	Retries     int `json:"retries"`
	// Fraction is finished cells (completed + quarantined) over total.
	Fraction float64 `json:"fraction"`
	// MedianCellSec is the trailing median execution time of cells
	// completed by this process (0 until the first completion).
	MedianCellSec float64 `json:"medianCellSec"`
	// ETASec estimates the remaining wall-clock time from the trailing
	// median and the observed parallelism; 0 when unknown (nothing
	// completed yet) or nothing remains.
	ETASec float64 `json:"etaSec"`
	// Epoch increments on every state change; pollers (the SSE stream)
	// use it to detect movement without diffing cells.
	Epoch uint64         `json:"epoch"`
	Cells []CellProgress `json:"cells"`
}

// cellProg is the tracker's per-cell record.
type cellProg struct {
	state    CellState
	attempts int
	started  time.Time
	took     time.Duration
	reason   string
}

// trailingWindow bounds the duration history used for the median.
const trailingWindow = 64

// progressTracker accumulates cell states across an engine's Run calls
// (a Suite priming several figures reuses one engine; the tracker's
// universe grows with each new grid). It has its own lock so Progress
// never contends with the engine's execution mutex.
type progressTracker struct {
	mu        sync.Mutex
	order     []string
	cells     map[string]*cellProg
	durations []time.Duration // trailing window of completed cell times
	retries   int
	epoch     uint64
}

func (p *progressTracker) cellLocked(key string) *cellProg {
	if p.cells == nil {
		p.cells = make(map[string]*cellProg)
	}
	c, ok := p.cells[key]
	if !ok {
		c = &cellProg{state: CellPending}
		p.cells[key] = c
		p.order = append(p.order, key)
	}
	return c
}

// observe registers a cell in the given state if it is new; known cells
// keep their current state (a later Run listing an already-completed
// cell must not regress it to pending).
func (p *progressTracker) observe(key string, state CellState) {
	p.mu.Lock()
	c := p.cellLocked(key)
	if state != CellPending && c.state == CellPending {
		c.state = state
	}
	p.epoch++
	p.mu.Unlock()
}

func (p *progressTracker) markRunning(key string) {
	p.mu.Lock()
	c := p.cellLocked(key)
	c.state = CellRunning
	c.attempts++
	if c.attempts == 1 {
		c.started = time.Now()
	}
	p.epoch++
	p.mu.Unlock()
}

func (p *progressTracker) markDone(key string) {
	p.mu.Lock()
	c := p.cellLocked(key)
	c.state = CellCompleted
	if !c.started.IsZero() {
		c.took = time.Since(c.started)
		p.durations = append(p.durations, c.took)
		if len(p.durations) > trailingWindow {
			p.durations = p.durations[len(p.durations)-trailingWindow:]
		}
	}
	p.epoch++
	p.mu.Unlock()
}

func (p *progressTracker) markQuarantined(key, reason string) {
	p.mu.Lock()
	c := p.cellLocked(key)
	c.state = CellQuarantined
	c.reason = reason
	if !c.started.IsZero() {
		c.took = time.Since(c.started)
	}
	p.epoch++
	p.mu.Unlock()
}

func (p *progressTracker) addRetry() {
	p.mu.Lock()
	p.retries++
	p.epoch++
	p.mu.Unlock()
}

// snapshot assembles the exported view.
func (p *progressTracker) snapshot() Progress {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := Progress{
		Total:   len(p.order),
		Retries: p.retries,
		Epoch:   p.epoch,
		Cells:   make([]CellProgress, 0, len(p.order)),
	}
	for _, key := range p.order {
		c := p.cells[key]
		cp := CellProgress{
			Key:      key,
			State:    c.state,
			Attempts: c.attempts,
			Reason:   c.reason,
		}
		switch c.state {
		case CellPending:
			out.Pending++
		case CellRunning:
			out.Running++
		case CellCompleted, CellResumed:
			out.Completed++
			if c.state == CellResumed {
				out.Resumed++
			}
			cp.TookSec = c.took.Seconds()
		case CellQuarantined:
			out.Quarantined++
			cp.TookSec = c.took.Seconds()
		}
		out.Cells = append(out.Cells, cp)
	}
	finished := out.Completed + out.Quarantined
	if out.Total > 0 {
		out.Fraction = float64(finished) / float64(out.Total)
	}
	if n := len(p.durations); n > 0 {
		sorted := append([]time.Duration(nil), p.durations...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		med := sorted[n/2]
		out.MedianCellSec = med.Seconds()
		if remaining := out.Total - finished; remaining > 0 {
			conc := out.Running
			if conc < 1 {
				conc = par.Jobs()
			}
			if conc < 1 {
				conc = 1
			}
			out.ETASec = med.Seconds() * float64(remaining) / float64(conc)
		}
	}
	return out
}

// Progress returns the engine's live grid status. Safe to call from any
// goroutine, including while Run executes; it never blocks execution.
func (e *Engine) Progress() Progress { return e.prog.snapshot() }
