// Package telemetry is the repository's one HTTP server: it owns the
// listener, the process's health, readiness, metrics and profiling
// endpoints, and a shutdown that ends open requests. The CLIs start it
// behind -obs-addr with the built-in routes alone (see Stack); reramd
// adds POST /v1/solve (package serve), so every binary serves
// everything on one port. A watcher follows a running sweep on
// /metrics: the jobs.* counters report its grid.
//
// Built-in endpoints:
//
//	/metrics       Prometheus text exposition, rendered from the
//	               registry's sorted view per scrape (lock-free: scrapes
//	               never contend with metric mutation).
//	               The runtime.* series are refreshed on every scrape.
//	/healthz       liveness: 200 as soon as the server is up.
//	/readyz        readiness: 503 until the host marks the process
//	               ready, and again once it marks it not ready (drain).
//	/debug/pprof/  the standard net/http/pprof handlers, on this mux
//	               (not the global DefaultServeMux) so they share the
//	               server's graceful shutdown.
//	/              an index of every route the server answers.
//
// Shutdown is graceful and context-driven: it cancels every open
// request's context (ending /debug/pprof/profile and /trace captures),
// stops the runtime collector and the listener, then waits for
// in-flight requests.
package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"

	"reramsim/internal/obs"
)

// Route is an endpoint a host serves beside the built-in ones.
type Route struct {
	Pattern string // http.ServeMux pattern, e.g. "POST /v1/solve"
	Doc     string // the route's line in the / index
	Handler http.HandlerFunc
}

// Server is a running HTTP endpoint. Create with Start, stop with
// Shutdown.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	index string

	ready       atomic.Bool
	stopRuntime func()
	// cancel ends the context every request runs under: the shutdown
	// signal a running /debug/pprof/profile or /trace capture waits on,
	// which would otherwise hold Shutdown open for its whole duration.
	cancel context.CancelFunc

	done     chan struct{} // closed when Serve returns
	serveErr error
}

// Start binds addr ("127.0.0.1:0" picks a free port; see Server.Addr)
// and serves the host's routes and the built-in endpoints on a
// background goroutine. It also starts the runtime.* collector; both
// are stopped by Shutdown.
func Start(addr string, routes ...Route) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{ln: ln, cancel: cancel, done: make(chan struct{})}
	routes = append(routes,
		Route{"/metrics", "Prometheus text exposition", s.handleMetrics},
		Route{"/healthz", "liveness", s.handleHealthz},
		Route{"/readyz", "readiness (503 until ready and while draining)", s.handleReadyz},
		Route{"/debug/pprof/", "profiling", pprof.Index})
	mux := http.NewServeMux()
	var index strings.Builder
	for _, rt := range routes {
		mux.HandleFunc(rt.Pattern, rt.Handler)
		fmt.Fprintf(&index, "%-22s %s\n", rt.Pattern, rt.Doc)
	}
	s.index = index.String()
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", s.handleIndex)
	s.srv = &http.Server{
		Handler:     mux,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
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
// once work can be admitted, and not ready when it starts to drain.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Shutdown stops the server gracefully: open requests see their context
// cancelled (profile captures end), the runtime collector stops, the
// listener closes, and in-flight requests drain within ctx's deadline.
// Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
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
	fmt.Fprint(w, s.index)
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

// handleMetrics renders the default registry per scrape. The render is
// lock-free, so scraping mid-sweep never stalls simulations.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	obs.CollectRuntime() // scrapes always see current runtime.* values
	// WriteText renders into a pooled buffer and issues one Write, so it
	// can stream straight to the response: no error can occur before the
	// single write, and no intermediate copy is needed.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WriteText(w)
}
