package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one finished program run.
type proc struct {
	out   []byte        // standard output
	wall  time.Duration // spawn to exit
	rssKB int64         // peak resident set size
	err   error         // start failure or non-zero exit, with the stderr tail
}

// runProc runs bin to completion and times it from spawn to exit.
func runProc(ctx context.Context, bin string, args ...string) proc {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	p := proc{out: stdout.Bytes(), wall: time.Since(start), rssKB: maxRSS(cmd)}
	if err != nil {
		p.err = fmt.Errorf("%s: %w: %s", filepath.Base(bin), err, lastLine(stderr.String()))
	}
	return p
}

// maxRSS reads the peak resident set size (KiB on Linux) of an exited
// command.
func maxRSS(cmd *exec.Cmd) int64 {
	if cmd.ProcessState == nil {
		return 0
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// daemon is a running reramd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *addrWatch
	done   chan struct{} // closed once the process has been waited for
	err    error         // the Wait result, valid after done
}

const servingPrefix = "reramd: serving on http://"

// startDaemon spawns reramd and returns once /readyz answers 200, with
// the time from spawn to that answer.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	// On cancellation drain like an operator would; WaitDelay escalates
	// to SIGKILL if the drain hangs.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	d := &daemon{cmd: cmd, stderr: &addrWatch{found: make(chan string, 1)}, done: make(chan struct{})}
	cmd.Stderr = d.stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting reramd: %w", err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, err
	}
	select {
	case d.addr = <-d.stderr.found:
	case <-d.done:
		return nil, 0, fmt.Errorf("reramd exited before serving: %v: %s", d.err, d.stderr.tail())
	case <-time.After(time.Minute):
		return fail(errors.New("reramd: not serving after 1 minute"))
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+"/readyz", nil)
		if err != nil {
			return fail(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if ctx.Err() != nil || time.Since(start) > time.Minute {
			return fail(fmt.Errorf("reramd on %s never became ready: %v", d.addr, err))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns
// its peak RSS. Anything but exit 0 or death by that SIGTERM is an error:
// reramd reports ready just before it installs its signal handler, so a
// daemon stopped right after start-up can die of the signal itself.
func (d *daemon) stop() (rssKB int64, err error) {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		<-d.done
	}
	if d.err != nil {
		if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return maxRSS(d.cmd), nil
		}
		return maxRSS(d.cmd), fmt.Errorf("reramd: %w: %s", d.err, d.stderr.tail())
	}
	return maxRSS(d.cmd), nil
}

// addrWatch collects reramd's standard error and reports the address
// from its "serving on" line.
type addrWatch struct {
	mu    sync.Mutex
	buf   []byte
	sent  bool
	found chan string // receives the address once
}

func (w *addrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if !w.sent {
		s := string(w.buf)
		if i := strings.Index(s, servingPrefix); i >= 0 {
			rest := s[i+len(servingPrefix):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				w.found <- rest[:j]
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *addrWatch) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return lastLine(string(w.buf))
}
