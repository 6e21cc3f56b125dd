// Package telemetry is the live observability plane: an embeddable HTTP
// server exposing the process's metrics, health, job progress and
// profiling endpoints while a simulation runs. Both CLIs mount it
// behind -obs-addr, and the future reramd daemon mounts it verbatim.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition, rendered from a fresh
//	               registry snapshot per scrape (lock-free: scrapes
//	               never contend with metric mutation).
//	               The runtime.* series are refreshed on every scrape.
//	/healthz       liveness: 200 as soon as the server is up.
//	/readyz        readiness: 503 until the host marks the process
//	               ready (suite calibrated), 200 afterwards.
//	/progress      jobs-engine grid state as JSON; with ?stream=1 (or
//	               Accept: text/event-stream) an SSE stream pushing a
//	               snapshot whenever the engine's state changes.
//	/debug/pprof/  the standard net/http/pprof handlers, on this mux
//	               (not the global DefaultServeMux) so they share the
//	               server's graceful shutdown.
//
// Shutdown is graceful and context-driven: Shutdown stops the SSE
// streams, the runtime collector and the listener, then waits for
// in-flight requests.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reramsim/internal/jobs"
	"reramsim/internal/obs"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address, e.g. "localhost:6060" or
	// "127.0.0.1:0" (port 0 picks a free port; see Server.Addr).
	Addr string

	// streamInterval is the SSE poll period (default 250ms): the
	// stream checks the progress epoch this often and pushes a new
	// event only when it moved. Tests shorten it.
	streamInterval time.Duration
}

// Server is a running telemetry endpoint. Create with Start, stop with
// Shutdown.
type Server struct {
	opts Options
	ln   net.Listener
	srv  *http.Server

	ready       atomic.Bool
	progressFn  atomic.Pointer[func() jobs.Progress]
	stopRuntime func()

	closing   chan struct{} // closed at Shutdown: unblocks SSE streams
	closeOnce sync.Once
	done      chan struct{} // closed when Serve returns
	serveErr  error
}

// Start binds opts.Addr and serves the telemetry mux on a background
// goroutine. It also starts the runtime.* collector; both are stopped
// by Shutdown.
func Start(opts Options) (*Server, error) {
	if opts.streamInterval <= 0 {
		opts.streamInterval = 250 * time.Millisecond
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", opts.Addr, err)
	}
	s := &Server{
		opts:    opts,
		ln:      ln,
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", s.handleIndex)
	s.srv = &http.Server{Handler: mux}
	s.stopRuntime = obs.StartRuntimeCollector()
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.serveErr = err
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (resolving ":0" to the actual
// port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetReady flips the /readyz state; the host marks the process ready
// once its suite is calibrated and work can be admitted.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// SetProgress attaches the jobs-engine progress source feeding
// /progress (typically eng.Progress). Pass nil to detach.
func (s *Server) SetProgress(fn func() jobs.Progress) {
	if fn == nil {
		s.progressFn.Store(nil)
		return
	}
	s.progressFn.Store(&fn)
}

// Shutdown stops the server gracefully: SSE streams end, the runtime
// collector stops, the listener closes, and in-flight requests drain
// within ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() { close(s.closing) })
	s.stopRuntime()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if err == nil {
		err = s.serveErr
	}
	return err
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `reramsim telemetry
/metrics        Prometheus text exposition
/healthz        liveness
/readyz         readiness
/progress       sweep progress (JSON; ?stream=1 for SSE)
/debug/pprof/   profiling
`)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders a fresh capture of the default registry per
// scrape. The snapshot path is lock-free, so scraping mid-sweep never
// stalls simulations.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	obs.CollectRuntime() // scrapes always see current runtime.* values
	// WriteText renders into a pooled buffer and issues one Write, so it
	// can stream straight to the response: no error can occur before the
	// single write, and no intermediate copy is needed.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().Snapshot().WriteText(w)
}

func (s *Server) progress() func() jobs.Progress {
	if p := s.progressFn.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	src := s.progress()
	if src == nil {
		http.Error(w, "no jobs engine attached (run a sweep)", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("stream") != "" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamProgress(w, r, src)
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

// streamProgress pushes SSE events: the current snapshot immediately,
// then a new one each time the engine's epoch moves (checked every
// streamInterval). The stream ends when the client disconnects or the
// server shuts down.
func (s *Server) streamProgress(w http.ResponseWriter, r *http.Request, src func() jobs.Progress) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	t := time.NewTicker(s.opts.streamInterval)
	defer t.Stop()
	var last uint64
	first := true
	for {
		p := src()
		if first || p.Epoch != last {
			first, last = false, p.Epoch
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
		case <-s.closing:
			return
		case <-t.C:
		}
	}
}
