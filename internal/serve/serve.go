// Package serve is the API of the reramd simulation-as-a-service
// daemon, mounted on the telemetry server (package telemetry), which
// owns the listener, /healthz, /readyz, /metrics and /debug/pprof/.
// Its one endpoint, POST /v1/solve, answers one (scheme, workload) cell
// of a calibrated suite. The compute underneath (calibrated suite,
// per-cell singleflight, content-addressed caches, bounded worker pool)
// already exists; this package is deliberately only the robustness
// spine wrapped around it:
//
//   - Admission control: per-client token buckets (fair queuing by
//     client identity) in front of a bounded compute queue. Over-quota
//     clients are shed with 429 and a Retry-After hint from the shared
//     internal/retry backoff+jitter schedule; a saturated queue sheds
//     with 503 and a fixed hint. The intake policy is fixed (see
//     admissionConfig).
//   - Deadlines: every solve runs under a context deadline (its own,
//     capped at 10m, or a 1m default), installed with a typed cause and
//     mapped to 504. The deadline propagates as plain context through
//     the Suite to the memsys event loop, which polls it every 4,096
//     events, so a timed-out solve stops mid-simulation.
//   - Shared runs: identical in-flight solves share one simulation
//     through the suite's per-cell singleflight, so N clients asking
//     the same question cost one run. A client that wants a grid sends
//     its cells as concurrent solves.
//   - Panic isolation: a panicking handler is quarantined by recovery
//     middleware — stack logged, 500 returned, process still serving.
//   - Graceful drain: Drain refuses new compute, flips /readyz to 503,
//     waits for in-flight solves, then force-cancels stragglers and
//     stops the server.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"reramsim/internal/telemetry"
)

// Options configures a Server. Addr and Backend are required.
type Options struct {
	// Addr is the listen address, e.g. "localhost:8080" ("127.0.0.1:0"
	// picks a free port; see Server.Addr).
	Addr    string
	Backend Backend

	// TestPanicWorkload makes any handler touching the named workload
	// panic — the hook behind the panic-isolation e2e (reramd wires it
	// to RERAMD_PANIC_WORKLOAD). Empty in production.
	TestPanicWorkload string

	// admission overrides the fixed intake policy field by field (a zero
	// field keeps the policy), and log replaces os.Stderr as the sink
	// for operational lines (panic stacks, drain progress). Only tests
	// set them.
	admission admissionConfig
	log       io.Writer
}

// Compute budgets: a request that names no deadline_ms runs under
// defaultDeadline, and a requested deadline is capped at maxDeadline.
const (
	defaultDeadline = time.Minute
	maxDeadline     = 10 * time.Minute
)

// drainGate counts in-flight compute requests and atomically flips to
// "draining": once flipped, enter fails (the request is shed with 503)
// and the channel from beginDrain closes when the last unit leaves. It
// is the server's one drain state.
type drainGate struct {
	mu       sync.Mutex
	draining bool
	n        int
	idle     chan struct{} // non-nil once draining; closed at n==0
}

func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

func (g *drainGate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	if g.draining && g.n == 0 {
		close(g.idle)
		g.idle = nil // close exactly once
	}
}

// beginDrain flips the gate; the returned channel is closed when no
// units remain (immediately, when none are in flight). Idempotent:
// later calls observe the same drain.
func (g *drainGate) beginDrain() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch := make(chan struct{})
	if !g.draining {
		g.draining = true
		if g.n == 0 {
			close(ch)
			return ch
		}
		g.idle = ch
		return ch
	}
	if g.idle == nil { // already drained to idle
		close(ch)
		return ch
	}
	return g.idle
}

// Server is a running daemon endpoint: the /v1 API mounted on a
// telemetry server. Create with Start; stop with Drain (graceful) or
// Close (immediate).
type Server struct {
	opts Options
	http *telemetry.Server

	adm  *admission
	gate *drainGate

	// baseCtx parents every compute context, so one cancel (forced
	// drain) reaches every in-flight solve.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
}

// Start binds opts.Addr and serves the API, beside the telemetry
// server's /healthz, /readyz, /metrics and /debug/pprof/, on a
// background goroutine.
func Start(opts Options) (*Server, error) {
	if opts.Backend == nil {
		return nil, fmt.Errorf("serve: Options.Backend is required")
	}
	if opts.log == nil {
		opts.log = os.Stderr
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		opts:       opts,
		adm:        newAdmission(opts.admission),
		gate:       &drainGate{},
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	srv, err := telemetry.Start(opts.Addr,
		telemetry.Route{Pattern: "POST /v1/solve", Doc: "one (scheme, workload) simulation",
			Handler: s.compute(s.handleSolve)})
	if err != nil {
		cancel(errDraining)
		return nil, err
	}
	s.http = srv
	return s, nil
}

// Addr returns the bound listen address (":0" resolved).
func (s *Server) Addr() string { return s.http.Addr() }

// SetReady flips /readyz; the host marks ready once its suite is
// calibrated. Drain marks it not ready.
func (s *Server) SetReady(ready bool) { s.http.SetReady(ready) }

// Drain performs the graceful shutdown contract:
//
//  1. New compute requests are refused (503 + Retry-After) and /readyz
//     goes 503 — load balancers stop routing here.
//  2. In-flight solves run to completion.
//  3. When ctx expires first, the base context is cancelled: running
//     simulations stop inside their event loop, and their requests
//     answer 503.
//  4. The listener shuts down.
//
// Idempotent; concurrent calls share one drain. The error reports a
// forced (rather than clean) drain.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	// The gate flips before readiness, so a client that sees /readyz
	// 503 is refused compute.
	idle := s.gate.beginDrain()
	s.http.SetReady(false)
	obsDraining.Set(1)

	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		// Too slow: cut the compute off underneath. Running
		// simulations stop inside their event loop.
		fmt.Fprintf(s.opts.log, "serve: drain deadline reached; cancelling in-flight work\n")
		s.baseCancel(errDraining)
		forceCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		select {
		case <-idle:
		case <-forceCtx.Done():
			err = fmt.Errorf("serve: drain: in-flight work did not stop: %w", context.Cause(ctx))
		}
		cancel()
	}
	s.baseCancel(errDraining) // nothing new may use the base context
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := s.http.Shutdown(shutCtx); serr != nil && err == nil {
		err = fmt.Errorf("serve: drain: http shutdown: %w", serr)
	}
	obsDrainMs.Set(float64(time.Since(start).Milliseconds()))
	return err
}

// Close stops the server without waiting for in-flight work (tests and
// error paths; production exits call Drain).
func (s *Server) Close() error {
	s.gate.beginDrain()
	s.baseCancel(errDraining)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.http.Shutdown(ctx)
}

// clientID identifies the caller for fair queuing: the X-Client-ID
// header when present (so clients behind one proxy or NAT keep separate
// quotas), the remote host otherwise.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// recovered wraps a handler with panic isolation and the request
// counter: a panic is counted, logged with its stack and answered with
// 500, while the process keeps serving.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obsRequests.Inc()
		defer func() {
			if v := recover(); v != nil {
				obsPanics.Inc()
				fmt.Fprintf(s.opts.log, "serve: panic in %s %s: %v\n%s\n",
					r.Method, r.URL.Path, v, debug.Stack())
				writeError(w, http.StatusInternalServerError, 0,
					"internal error: handler panicked (quarantined; the server keeps serving)")
			}
		}()
		h(w, r)
	}
}

// compute chains the full robustness spine in admission order: panic
// recovery, drain refusal, per-client token bucket, then the handler
// (which acquires compute slots itself where it actually computes).
func (s *Server) compute(h http.HandlerFunc) http.HandlerFunc {
	return s.recovered(func(w http.ResponseWriter, r *http.Request) {
		client := clientID(r)
		if !s.gate.enter() {
			obsSaturated.Inc()
			writeError(w, http.StatusServiceUnavailable, s.adm.retryAfterSaturated(),
				"draining: not accepting new work")
			return
		}
		defer s.gate.exit()
		if ok, retryAfter := s.adm.allow(client, time.Now()); !ok {
			obsShed.Inc()
			writeError(w, http.StatusTooManyRequests, retryAfter,
				"client %q over quota", client)
			return
		}
		obsAdmitted.Inc()
		h(w, r)
	})
}

// deadlineFor resolves a request's compute budget.
func deadlineFor(ms int64) time.Duration {
	d := defaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	return min(d, maxDeadline)
}

// computeCtx derives the bounded context compute runs under. It parents
// on the server's base context — NOT the request's — so a client
// disconnect cannot kill a run other clients may be sharing, and a
// forced drain reaches everything with one cancel.
func (s *Server) computeCtx(budget time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeoutCause(s.baseCtx, budget, &DeadlineError{Budget: budget})
}

// decodeJSON decodes a request body strictly: exactly one JSON value,
// no unknown fields, nothing after it but white space.
func decodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, 0, "bad request body: data after the first JSON value")
		return false
	}
	return true
}

type solveRequest struct {
	Scheme     string `json:"scheme"`
	Workload   string `json:"workload"`
	DeadlineMs int64  `json:"deadline_ms,omitempty"`
}

type solveResponse struct {
	Scheme   string          `json:"scheme"`
	Workload string          `json:"workload"`
	Result   json.RawMessage `json:"result"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.opts.Backend.Validate(req.Scheme, req.Workload); err != nil {
		writeError(w, http.StatusBadRequest, 0, "%v", err)
		return
	}
	if s.opts.TestPanicWorkload != "" && req.Workload == s.opts.TestPanicWorkload {
		panic("serve: injected test panic for workload " + req.Workload)
	}
	budget := deadlineFor(req.DeadlineMs)
	ctx, cancel := s.computeCtx(budget)
	defer cancel()
	release, err := s.adm.slot(ctx)
	if err != nil {
		s.writeComputeErr(w, err)
		return
	}
	defer release()
	obsSolves.Inc()
	result, err := s.opts.Backend.Solve(ctx, req.Scheme, req.Workload)
	if err != nil {
		s.writeComputeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, solveResponse{Scheme: req.Scheme, Workload: req.Workload, Result: result})
}

func (s *Server) writeComputeErr(w http.ResponseWriter, err error) {
	st := statusFromErr(err)
	switch st {
	case http.StatusGatewayTimeout:
		obsTimeouts.Inc()
	case http.StatusServiceUnavailable:
		obsSaturated.Inc()
		writeError(w, st, s.adm.retryAfterSaturated(), "%v", err)
		return
	}
	writeError(w, st, 0, "%v", err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
