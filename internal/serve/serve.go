// Package serve is the hardened HTTP surface of the reramd
// simulation-as-a-service daemon. The compute underneath (calibrated
// suite, journaled jobs, content-addressed caches, bounded worker pool)
// already exists; this package is deliberately only the robustness
// spine wrapped around it:
//
//   - Admission control: per-client token buckets (fair queuing by
//     client identity) in front of a bounded compute queue. Over-quota
//     clients are shed with 429, a saturated queue sheds with 503, and
//     both carry Retry-After hints computed from the shared
//     internal/retry backoff+jitter policy.
//   - Deadlines: every compute request runs under a context deadline
//     (its own or the server default), installed with a typed cause and
//     mapped to 504. The deadline propagates as plain context through
//     Suite -> jobs -> xpoint, so a timed-out sweep checkpoints what it
//     finished.
//   - In-flight dedup: sweep requests are identified by the suite's
//     content-addressed grid digest; identical concurrent requests
//     attach to one running job, so N clients asking the same question
//     cost one grid execution (and the suite's own singleflight dedups
//     at the cell level below that).
//   - Panic isolation: a panicking handler is quarantined by recovery
//     middleware — stack logged, 500 returned, process still serving.
//   - Graceful drain: Drain flips /readyz to 503, refuses new compute,
//     waits for in-flight requests and jobs (which checkpoint through
//     the normal journal machinery), then force-cancels stragglers and
//     stops the listener.
//
// Endpoints: POST /v1/solve, POST /v1/sweep, GET /v1/jobs and
// /v1/jobs/{id} (JSON, ?wait=1, or SSE with ?stream=1), plus /healthz,
// /readyz and /metrics so one port is fully operable behind a load
// balancer.
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reramsim/internal/experiments"
	"reramsim/internal/obs"
)

// Options configures a Server. Addr and Backend are required; every
// other zero value selects a default.
type Options struct {
	// Addr is the listen address, e.g. "localhost:8080" ("127.0.0.1:0"
	// picks a free port; see Server.Addr).
	Addr    string
	Backend Backend

	Admission AdmissionConfig

	// DefaultDeadline bounds compute requests that name no deadline_ms
	// (default 60s).
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (default 10m).
	MaxDeadline time.Duration
	// Log receives operational lines (panic stacks, drain progress);
	// default os.Stderr.
	Log io.Writer

	// TestPanicWorkload makes any handler touching the named workload
	// panic — the hook behind the panic-isolation e2e (reramd wires it
	// to RERAMD_PANIC_WORKLOAD). Empty in production.
	TestPanicWorkload string
}

func (o Options) withDefaults() Options {
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = time.Minute
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 10 * time.Minute
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}
	return o
}

// drainGate counts in-flight compute requests and job executors, and
// atomically flips to "draining": once flipped, enter fails (the
// request is shed with 503) and the channel from beginDrain closes when
// the last unit leaves.
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

// Server is a running daemon endpoint. Create with Start; stop with
// Drain (graceful) or Close (immediate).
type Server struct {
	opts Options
	ln   net.Listener
	srv  *http.Server

	adm  *admission
	reg  *jobRegistry
	gate *drainGate

	// baseCtx parents every compute context, so one cancel (forced
	// drain) reaches every in-flight solve and sweep.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	ready    atomic.Bool
	draining atomic.Bool

	closing   chan struct{} // closed right before the listener stops: ends SSE streams
	closeOnce sync.Once
	done      chan struct{}
	serveErr  error
}

// Start binds opts.Addr and serves the API on a background goroutine.
func Start(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Backend == nil {
		return nil, fmt.Errorf("serve: Options.Backend is required")
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", opts.Addr, err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		opts:       opts,
		ln:         ln,
		adm:        newAdmission(opts.Admission),
		reg:        newJobRegistry(),
		gate:       &drainGate{},
		baseCtx:    ctx,
		baseCancel: cancel,
		closing:    make(chan struct{}),
		done:       make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/solve", s.compute(s.handleSolve))
	mux.HandleFunc("POST /v1/sweep", s.compute(s.handleSweep))
	mux.HandleFunc("GET /v1/jobs", s.recovered(s.handleJobsList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.recovered(s.handleJob))
	mux.HandleFunc("/", s.handleIndex)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.serveErr = err
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (":0" resolved).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetReady flips /readyz; the host marks ready once its suite is
// calibrated. Draining forces not-ready regardless.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain performs the graceful shutdown contract:
//
//  1. /readyz goes 503 and new compute requests are refused (503 +
//     Retry-After) — load balancers stop routing here.
//  2. In-flight requests and sweep jobs run to completion; finished
//     cells checkpoint through the normal journal machinery.
//  3. When ctx expires first, the base context is cancelled: engines
//     observe it, flush a final checkpoint segment, and return.
//  4. SSE streams end and the listener shuts down.
//
// Idempotent; concurrent calls share one drain. The error reports a
// forced (rather than clean) drain.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	s.draining.Store(true)
	s.ready.Store(false)
	obsDraining.Set(1)
	idle := s.gate.beginDrain()

	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		// Too slow: cut the compute off underneath. Engines flush their
		// final checkpoint on the way out.
		fmt.Fprintf(s.opts.Log, "serve: drain deadline reached; cancelling in-flight work\n")
		s.baseCancel(errDraining)
		forceCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		select {
		case <-idle:
		case <-forceCtx.Done():
			err = fmt.Errorf("serve: drain: in-flight work did not stop: %w", context.Cause(ctx))
		}
		cancel()
	}
	// Jobs spawned by non-waiting requests also hold the gate, but wait
	// for the registry too in case a job executor outlives its request
	// bookkeeping.
	regCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if werr := s.reg.wait(regCtx); werr != nil && err == nil {
		err = fmt.Errorf("serve: drain: job executors still running: %w", werr)
	}
	cancel()

	s.closeOnce.Do(func() { close(s.closing) })
	s.baseCancel(errDraining) // nothing new may use the base context
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := s.srv.Shutdown(shutCtx); serr != nil && err == nil {
		err = fmt.Errorf("serve: drain: http shutdown: %w", serr)
	}
	<-s.done
	obsDrainMs.Set(float64(time.Since(start).Milliseconds()))
	if err == nil {
		err = s.serveErr
	}
	return err
}

// Close stops the server without waiting for in-flight work (tests and
// error paths; production exits call Drain).
func (s *Server) Close() error {
	s.draining.Store(true)
	s.closeOnce.Do(func() { close(s.closing) })
	s.baseCancel(errDraining)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if err == nil {
		err = s.serveErr
	}
	return err
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
				fmt.Fprintf(s.opts.Log, "serve: panic in %s %s: %v\n%s\n",
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
		if s.draining.Load() || !s.gate.enter() {
			obsSaturated.Inc()
			writeError(w, http.StatusServiceUnavailable, s.adm.retryAfterSaturated(client),
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
func (s *Server) deadlineFor(ms int64) time.Duration {
	d := s.opts.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.opts.MaxDeadline {
		d = s.opts.MaxDeadline
	}
	return d
}

// computeCtx derives the bounded context compute runs under. It parents
// on the server's base context — NOT the request's — so a client
// disconnect cannot kill a run other clients may be sharing, and a
// forced drain reaches everything with one cancel.
func (s *Server) computeCtx(budget time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeoutCause(s.baseCtx, budget, &DeadlineError{Budget: budget})
}

// decodeJSON decodes one JSON request body strictly.
func decodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
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
	budget := s.deadlineFor(req.DeadlineMs)
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

type sweepRequest struct {
	Schemes    []string `json:"schemes"`
	Workloads  []string `json:"workloads"`
	DeadlineMs int64    `json:"deadline_ms,omitempty"`
	// Wait blocks the response until the job finishes (bounded by the
	// request deadline) instead of returning 202 immediately.
	Wait bool `json:"wait,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Schemes) == 0 || len(req.Workloads) == 0 {
		writeError(w, http.StatusBadRequest, 0, "schemes and workloads must both be non-empty")
		return
	}
	for _, sc := range req.Schemes {
		for _, wl := range req.Workloads {
			if err := s.opts.Backend.Validate(sc, wl); err != nil {
				writeError(w, http.StatusBadRequest, 0, "%v", err)
				return
			}
			if s.opts.TestPanicWorkload != "" && wl == s.opts.TestPanicWorkload {
				panic("serve: injected test panic for workload " + wl)
			}
		}
	}
	pairs := make([]experiments.SimPair, 0, len(req.Schemes)*len(req.Workloads))
	for _, sc := range req.Schemes {
		for _, wl := range req.Workloads {
			pairs = append(pairs, experiments.SimPair{Scheme: sc, Workload: wl})
		}
	}
	digest, err := s.opts.Backend.Digest(pairs)
	if err != nil {
		writeError(w, http.StatusInternalServerError, 0, "digest: %v", err)
		return
	}
	obsSweepReqs.Inc()

	budget := s.deadlineFor(req.DeadlineMs)
	j, attached := s.reg.openOrAttach(digest, pairs, func(j *swJob) {
		// The executor goroutine holds the drain gate for the job's whole
		// life, so Drain waits for background (non-wait) jobs too.
		if !s.gate.enter() {
			j.finish(nil, errDraining)
			return
		}
		defer s.gate.exit()
		ctx, cancel := s.computeCtx(budget)
		defer cancel()
		release, err := s.adm.slot(ctx)
		if err != nil {
			j.finish(nil, err)
			return
		}
		defer release()
		obsJobsRun.Inc()
		rep, err := s.opts.Backend.Sweep(ctx, digest, pairs, j.setProgress)
		j.finish(rep, err)
	})
	if attached {
		obsDeduped.Inc()
	}

	if !req.Wait {
		doc := j.doc(false)
		doc.Deduped = attached
		writeJSON(w, http.StatusAccepted, doc)
		return
	}
	// Waiting requests are bounded by their own deadline, not the job's:
	// a parked waiter that gives up leaves the job running for everyone
	// else.
	waitCtx, cancel := context.WithTimeoutCause(r.Context(), budget, &DeadlineError{Budget: budget})
	defer cancel()
	select {
	case <-j.done:
		doc := j.doc(true)
		doc.Deduped = attached
		writeJSON(w, s.statusForJob(&doc), doc)
	case <-waitCtx.Done():
		s.writeComputeErr(w, context.Cause(waitCtx))
	}
}

// statusForJob maps a finished job document to a response status: a
// failed run surfaces its error's status, everything else (done,
// partial) is 200 and the document's state field tells the rest.
func (s *Server) statusForJob(doc *jobDoc) int {
	if doc.State != JobFailed {
		return http.StatusOK
	}
	j := s.reg.get(doc.JobID)
	if j == nil {
		return http.StatusInternalServerError
	}
	j.mu.Lock()
	err := j.err
	j.mu.Unlock()
	st := statusFromErr(err)
	if st == http.StatusGatewayTimeout {
		obsTimeouts.Inc()
	}
	return st
}

func (s *Server) writeComputeErr(w http.ResponseWriter, err error) {
	st := statusFromErr(err)
	switch st {
	case http.StatusGatewayTimeout:
		obsTimeouts.Inc()
	case http.StatusServiceUnavailable:
		obsSaturated.Inc()
		writeError(w, st, s.adm.retryAfterSaturated("retry"), "%v", err)
		return
	}
	writeError(w, st, 0, "%v", err)
}

func (s *Server) handleJobsList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.reg.list()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.reg.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, 0, "unknown job %q", r.PathValue("id"))
		return
	}
	q := r.URL.Query()
	if q.Get("stream") != "" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamJob(w, r, j)
		return
	}
	if q.Get("wait") != "" {
		waitCtx, cancel := context.WithTimeout(r.Context(), s.opts.DefaultDeadline)
		defer cancel()
		select {
		case <-j.done:
		case <-waitCtx.Done():
			// fall through: report whatever state the job is in now
		}
	}
	doc := j.doc(true)
	writeJSON(w, http.StatusOK, doc)
}

// streamInterval is the SSE poll period for /v1/jobs streams.
const streamInterval = 250 * time.Millisecond

// streamJob pushes the job as SSE: a snapshot immediately, a new one on
// every progress epoch change, and a final full document (with cell
// payloads) when the job finishes. The stream ends at client
// disconnect, job completion or server shutdown.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *swJob) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, 0, "streaming unsupported")
		return
	}
	obsSSEOpened.Inc()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	push := func(event string, doc jobDoc) bool {
		blob, err := json.Marshal(doc)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, blob); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	t := time.NewTicker(streamInterval)
	defer t.Stop()
	var lastEpoch uint64
	first := true
	for {
		select {
		case <-j.done:
			push("result", j.doc(true))
			return
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		default:
		}
		doc := j.doc(false)
		epoch := uint64(0)
		if doc.Progress != nil {
			epoch = doc.Progress.Epoch
		}
		if first || epoch != lastEpoch {
			first, lastEpoch = false, epoch
			if !push("progress", doc) {
				return
			}
		}
		select {
		case <-j.done:
			push("result", j.doc(true))
			return
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		case <-t.C:
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// handleMetrics renders the obs registry in Prometheus text form — the
// same lock-free snapshot path the telemetry plane uses, mounted here
// too so the API port alone is scrapeable.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	obs.CollectRuntime()
	// WriteText renders into a pooled buffer and issues one Write, so it
	// streams straight to the response without an intermediate copy.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().Snapshot().WriteText(w)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `reramd simulation service
POST /v1/solve      one (scheme, workload) simulation
POST /v1/sweep      a schemes x workloads grid (dedup'd, journaled)
GET  /v1/jobs       sweep jobs
GET  /v1/jobs/{id}  one job (?wait=1 blocks; ?stream=1 for SSE)
GET  /metrics       Prometheus text exposition
GET  /healthz       liveness
GET  /readyz        readiness (503 while calibrating or draining)
`)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
