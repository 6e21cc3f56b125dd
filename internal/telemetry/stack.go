package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reramsim/internal/jobs"
	"reramsim/internal/obs"
)

// Stack bundles the CLI observability wiring — the telemetry server
// with its /progress route, and the span trace file — behind one
// Start/Close pair, so every binary mounts them identically. Every
// method is nil-receiver safe: a CLI run without -obs-addr/-trace-spans
// carries a nil *Stack and all the calls are no-ops, keeping main free
// of flag-conditional plumbing.
type Stack struct {
	server    *Server
	progress  atomic.Pointer[func() jobs.Progress]
	traceSink *obs.ChromeTraceSink
	traceFile *os.File
	closeOnce sync.Once
	closeErr  error

	// streamInterval is the /progress SSE poll period: the stream checks
	// the progress epoch this often and sends an event only when it
	// moved. Tests shorten it.
	streamInterval time.Duration
}

// StackOptions selects which pieces of the stack to start; empty fields
// start nothing.
type StackOptions struct {
	// Addr starts the telemetry HTTP server with a /progress route.
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
	st := &Stack{streamInterval: 250 * time.Millisecond}
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
		if err := st.serve(opts.Addr); err != nil {
			st.Close()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "telemetry listening on http://%s\n", st.server.Addr())
	}
	return st, nil
}

// serve starts the stack's server on addr.
func (st *Stack) serve(addr string) error {
	srv, err := Start(addr, Route{"/progress", "sweep progress (JSON; ?stream=1 for SSE)", st.handleProgress})
	if err != nil {
		return err
	}
	st.server = srv
	return nil
}

// SetReady marks /readyz ready (no-op without a server).
func (st *Stack) SetReady(ready bool) {
	if st != nil && st.server != nil {
		st.server.SetReady(ready)
	}
}

// SetProgress attaches the jobs-engine progress source feeding
// /progress (typically eng.Progress; no-op on a nil stack).
func (st *Stack) SetProgress(fn func() jobs.Progress) {
	if st != nil {
		st.progress.Store(&fn)
	}
}

func (st *Stack) handleProgress(w http.ResponseWriter, r *http.Request) {
	p := st.progress.Load()
	if p == nil {
		http.Error(w, "no jobs engine attached (run a sweep)", http.StatusNotFound)
		return
	}
	src := *p
	if r.URL.Query().Get("stream") != "" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		st.streamProgress(w, r, src)
		return
	}
	blob, err := json.MarshalIndent(src(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
	w.Write([]byte("\n"))
}

// streamProgress serves src as a server-sent-event stream: one event at
// once, then one whenever the progress epoch has moved, checked every
// streamInterval. The stream ends when the client goes away or the
// server shuts down.
func (st *Stack) streamProgress(w http.ResponseWriter, r *http.Request, src func() jobs.Progress) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	t := time.NewTicker(st.streamInterval)
	defer t.Stop()
	var sent uint64
	first := true
	for {
		if p := src(); first || p.Epoch != sent {
			first, sent = false, p.Epoch
			blob, err := json.Marshal(p)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", blob); err != nil {
				return
			}
			fl.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
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
