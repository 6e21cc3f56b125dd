package telemetry

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"reramsim/internal/jobs"
	"reramsim/internal/obs"
)

// Stack bundles the CLI observability wiring — the telemetry server and
// the span trace file — behind one Start/Close pair, so both binaries
// mount them identically. Every method is nil-receiver safe: a CLI run
// without -obs-addr/-trace-spans carries a nil *Stack and all the calls
// are no-ops, keeping main free of flag-conditional plumbing.
type Stack struct {
	server    *Server
	traceSink *obs.ChromeTraceSink
	traceFile *os.File
	closeOnce sync.Once
	closeErr  error
}

// StackOptions selects which pieces of the stack to start; empty fields
// start nothing.
type StackOptions struct {
	// Addr starts the telemetry HTTP server (see Start).
	Addr string
	// TraceSpans enables span collection and streams the spans to this
	// file as Chrome trace events (load in ui.perfetto.dev).
	TraceSpans string
}

// StartStack starts the requested pieces. It returns (nil, nil) when
// opts requests nothing, so callers can hold the nil *Stack directly.
func StartStack(opts StackOptions) (*Stack, error) {
	if opts.Addr == "" && opts.TraceSpans == "" {
		return nil, nil
	}
	st := &Stack{}
	if opts.TraceSpans != "" {
		f, err := os.Create(opts.TraceSpans)
		if err != nil {
			return nil, fmt.Errorf("telemetry: -trace-spans: %w", err)
		}
		st.traceFile = f
		st.traceSink = obs.NewChromeTraceSink(f)
		obs.SetSpanSink(st.traceSink)
	}
	if opts.Addr != "" {
		srv, err := Start(Options{Addr: opts.Addr})
		if err != nil {
			st.Close()
			return nil, err
		}
		st.server = srv
		fmt.Fprintf(os.Stderr, "telemetry listening on http://%s\n", srv.Addr())
	}
	return st, nil
}

// SetReady marks /readyz ready (no-op without a server).
func (st *Stack) SetReady(ready bool) {
	if st != nil && st.server != nil {
		st.server.SetReady(ready)
	}
}

// SetProgress attaches the /progress source (no-op without a server).
func (st *Stack) SetProgress(fn func() jobs.Progress) {
	if st != nil && st.server != nil {
		st.server.SetProgress(fn)
	}
}

// Close tears the stack down: detaches and finalizes the span trace
// (writing the closing bracket) and shuts the server down gracefully
// with a short drain deadline. Idempotent, nil-safe, and must run
// before every process exit path — os.Exit skips deferred calls, so the
// CLIs call it explicitly as well as deferring it.
func (st *Stack) Close() error {
	if st == nil {
		return nil
	}
	st.closeOnce.Do(func() {
		if st.traceSink != nil {
			obs.SetSpanSink(nil)
			if err := st.traceSink.Close(); err != nil {
				st.closeErr = fmt.Errorf("telemetry: span trace: %w", err)
			}
			if err := st.traceFile.Close(); err != nil && st.closeErr == nil {
				st.closeErr = fmt.Errorf("telemetry: span trace: %w", err)
			}
		}
		if st.server != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := st.server.Shutdown(ctx); err != nil && st.closeErr == nil {
				st.closeErr = fmt.Errorf("telemetry: shutdown: %w", err)
			}
		}
	})
	return st.closeErr
}
