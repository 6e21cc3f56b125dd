package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"
)

// Exit codes of the engine-driven CLIs. Partial is deliberately distinct
// from the generic failure code 1 and the interrupt convention 130, so
// scripts can tell "finished, but some cells are quarantined — rerun
// with -resume after fixing" from "did not finish".
const (
	ExitOK          = 0   // every cell completed
	ExitPartial     = 3   // run finished but quarantined cells remain
	ExitInterrupted = 130 // SIGINT/SIGTERM stopped the run; its finished cells are on disk
)

// ErrCellPanic is a panic captured inside one cell's execution. The cell
// is quarantined (recorded in the journal with the stack) and the rest
// of the grid keeps running.
type ErrCellPanic struct {
	Key   string // grid cell whose execution panicked
	Value any    // recovered panic value
	Stack string // goroutine stack captured at the recovery point
}

func (e *ErrCellPanic) Error() string {
	return fmt.Sprintf("jobs: cell %s panicked: %v", e.Key, e.Value)
}

// ErrCellTimeout reports a cell that exceeded the per-cell deadline. It
// matches errors.Is(err, context.DeadlineExceeded).
type ErrCellTimeout struct {
	Key     string
	Timeout time.Duration
}

func (e *ErrCellTimeout) Error() string {
	return fmt.Sprintf("jobs: cell %s exceeded its %v deadline", e.Key, e.Timeout)
}

// Is lets errors.Is(err, context.DeadlineExceeded) recognise a cell
// timeout without losing the typed detail.
func (e *ErrCellTimeout) Is(target error) bool { return target == context.DeadlineExceeded }

// ErrQuarantined is the sentinel wrapped by errors that report a run
// which finished its grid but left quarantined cells behind; callers map
// it to ExitPartial.
var ErrQuarantined = errors.New("jobs: run finished with quarantined cells")

// InterruptError is the cancellation cause the CLIs install when SIGINT
// or SIGTERM arrives, so layers below (par.ForEach wraps context.Cause)
// can tell an operator interrupt from a deadline or a worker failure.
// It matches errors.Is(err, context.Canceled), keeping existing
// interrupted-run checks working.
type InterruptError struct {
	Sig os.Signal
}

func (e *InterruptError) Error() string { return "jobs: interrupted by " + e.Sig.String() }

// Is keeps errors.Is(err, context.Canceled) true for interrupt causes.
func (e *InterruptError) Is(target error) bool { return target == context.Canceled }
