package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles cmd/reramd once per test.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "reramd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// syncBuffer collects the daemon's stderr safely across goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *syncBuffer

	exited  chan struct{} // closed once the process has exited
	waitErr error         // cmd.Wait's result, valid after exited closes
}

// wait blocks until the daemon exits and returns cmd.Wait's error.
func (d *daemon) wait() error {
	<-d.exited
	return d.waitErr
}

var servingRe = regexp.MustCompile(`serving on http://(\S+)`)

// startDaemon launches the binary on a kernel-assigned port, waits for
// /readyz, and returns the live endpoint. A daemon that exits first
// fails the test at once, with its exit status and stderr.
func startDaemon(t *testing.T, bin string, env []string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	errBuf := &syncBuffer{}
	cmd.Stderr = errBuf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	d := &daemon{cmd: cmd, stderr: errBuf, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.exited
	})

	// poll sleeps between probes, failing the test if the daemon exits
	// or the deadline passes first.
	deadline := time.Now().Add(60 * time.Second)
	poll := func(what string, every time.Duration) {
		select {
		case <-d.exited:
			t.Fatalf("daemon exited before %s (%v); stderr:\n%s", what, d.waitErr, errBuf.String())
		case <-time.After(every):
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon timed out before %s; stderr:\n%s", what, errBuf.String())
		}
	}
	for d.base == "" {
		if m := servingRe.FindStringSubmatch(errBuf.String()); m != nil {
			d.base = "http://" + m[1]
			break
		}
		poll("announcing its address", 10*time.Millisecond)
	}
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		poll("becoming ready", 20*time.Millisecond)
	}
}

func (d *daemon) post(t *testing.T, path, client string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, out, err := post(d.base+path, client, blob)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp, out
}

// post sends blob to url as client and reads the whole answer. It
// reports failures as an error, so a test's own goroutines can call it.
func post(url, client string, blob []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

func (d *daemon) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
}

// metricValue extracts one metric's value from /metrics text.
func metricValue(t *testing.T, text, name string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// TestDaemonSolveDedupE2E: 32 concurrent identical solves, each from
// its own client, share one simulation through the suite's per-cell
// singleflight. Every request answers 200 with the same bytes, and the
// daemon's memsys_sims counter shows one simulation.
func TestDaemonSolveDedupE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, nil, "-accesses", "2000", "-jobs", "2")

	blob := []byte(`{"scheme":"UDRVR+PR","workload":"mcf_m"}`)
	const n = 32
	bodies := make([][]byte, n)
	errs := make(chan error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, body, err := post(d.base+"/v1/solve", fmt.Sprintf("client-%d", i), blob)
			switch {
			case err != nil:
				errs <- fmt.Errorf("request %d: %v", i, err)
			case resp.StatusCode != http.StatusOK:
				errs <- fmt.Errorf("request %d: status %d (%s)", i, resp.StatusCode, body)
			default:
				bodies[i] = body
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, body := range bodies {
		if !bytes.Equal(body, bodies[0]) {
			t.Fatalf("request %d answered different bytes:\n%s\nvs request 0:\n%s", i, body, bodies[0])
		}
	}

	var out struct{ Result struct{ Reads uint64 } }
	if err := json.Unmarshal(bodies[0], &out); err != nil || out.Result.Reads == 0 {
		t.Fatalf("result does not decode with reads (reads %d, err %v): %.200s", out.Result.Reads, err, bodies[0])
	}
	_, metrics := d.get(t, "/metrics")
	if v, ok := metricValue(t, string(metrics), "memsys_sims"); !ok || v != 1 {
		t.Fatalf("memsys_sims = %v (found=%v), want one simulation for %d requests", v, ok, n)
	}
}

// TestDaemonShedE2E: the fixed per-client bucket (burst 100, refill
// 50/s) sheds a greedy client with 429 + Retry-After while another
// client's solve completes. The greedy client sends bodies that fail
// validation: each one costs a token and answers 400 without
// simulating, so the client outruns the refill on any host.
func TestDaemonShedE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, nil, "-accesses", "300")

	const burst, rate = 100, 50.0 // serve's admission policy
	invalid := map[string]any{"scheme": "nope", "workload": "mcf_m"}
	admitted := 0
	var shed *http.Response
	start := time.Now()
	for shed == nil {
		if time.Since(start) > 30*time.Second {
			t.Fatalf("greedy client never shed: %d requests admitted in %v", admitted, time.Since(start))
		}
		resp, body := d.post(t, "/v1/solve", "greedy", invalid)
		switch resp.StatusCode {
		case http.StatusBadRequest:
			admitted++
		case http.StatusTooManyRequests:
			shed = resp
		default:
			t.Fatalf("request %d: status %d (%s), want 400 or 429", admitted+1, resp.StatusCode, body)
		}
	}
	elapsed := time.Since(start).Seconds()
	if limit := burst + rate*elapsed + 1; admitted < burst || float64(admitted) > limit {
		t.Fatalf("greedy client admitted %d times in %.2f s, want %d to %.0f (burst %d, refill %g/s)",
			admitted, elapsed, burst, limit, burst, rate)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After header")
	}
	if resp, body := d.post(t, "/v1/solve", "polite", map[string]any{"scheme": "Base", "workload": "mcf_m"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-quota client got %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestDaemonOneSurfaceE2E: reramd has five flags and one port, which
// answers the operational endpoints beside the API.
func TestDaemonOneSurfaceE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("reramd -h: %v\n%s", err, out)
	}
	var flags []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	want := []string{"-accesses", "-addr", "-jobs", "-solve-cache", "-trace-spans"}
	if !slices.Equal(flags, want) {
		t.Fatalf("reramd -h lists %v, want %v", flags, want)
	}

	d := startDaemon(t, bin, nil, "-accesses", "300")
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/pprof/"} {
		resp, body := d.get(t, path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s on the API port: %d, want 200", path, resp.StatusCode)
		}
		if path != "/metrics" {
			continue
		}
		for _, series := range []string{"serve_requests", "runtime_goroutines"} {
			if _, ok := metricValue(t, string(body), series); !ok {
				t.Errorf("/metrics lacks %s", series)
			}
		}
	}
}

// TestDaemonPanicIsolationE2E: a handler panic (injected via
// RERAMD_PANIC_WORKLOAD) answers 500 while the process keeps serving —
// /healthz and a fresh solve succeed afterwards.
func TestDaemonPanicIsolationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, []string{"RERAMD_PANIC_WORKLOAD=mil_m"}, "-accesses", "300")

	resp, body := d.post(t, "/v1/solve", "", map[string]any{"scheme": "Base", "workload": "mil_m"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic request: %d (%s), want 500", resp.StatusCode, body)
	}
	if resp, _ := d.get(t, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d, want 200", resp.StatusCode)
	}
	if resp, body := d.post(t, "/v1/solve", "", map[string]any{"scheme": "Base", "workload": "mcf_m"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after panic: %d (%s), want 200", resp.StatusCode, body)
	}
	if !strings.Contains(d.stderr.String(), "panic") {
		t.Fatal("daemon stderr never logged the panic stack")
	}
}

// TestDaemonSolveDeadlineE2E: a request deadline reaches the running
// simulation. A cold UDRVR+PR/mcf_m solve at 120,000 accesses runs
// ~2.8 s uninterrupted on a 2-vCPU host, over 20x the 100 ms deadline,
// so the solve answers 504 instead of finishing late with 200.
func TestDaemonSolveDeadlineE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, nil, "-accesses", "120000")

	resp, body := d.post(t, "/v1/solve", "", map[string]any{
		"scheme": "UDRVR+PR", "workload": "mcf_m", "deadline_ms": 100,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("100 ms solve: %d (%s), want 504", resp.StatusCode, body)
	}
}

// TestDaemonDrainE2E: SIGTERM while a solve holds its compute slot
// drains gracefully. /readyz and new solves answer 503 with
// Retry-After, the in-flight solve answers 200 with its result, and the
// process exits 0.
func TestDaemonDrainE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	// A cold UDRVR+PR/mcf_m solve at 120,000 accesses runs ~2.8 s on a
	// 2-vCPU host (TestDaemonSolveDeadlineE2E), so the signal lands
	// while it runs.
	d := startDaemon(t, bin, nil, "-accesses", "120000")

	type answer struct {
		status int
		body   []byte
		err    error
	}
	inflight := make(chan answer, 1)
	go func() {
		resp, body, err := post(d.base+"/v1/solve", "", []byte(`{"scheme":"UDRVR+PR","workload":"mcf_m"}`))
		a := answer{body: body, err: err}
		if resp != nil {
			a.status = resp.StatusCode
		}
		inflight <- a
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, metrics := d.get(t, "/metrics")
		if v, ok := metricValue(t, string(metrics), "serve_inflight"); ok && v == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the solve never held a compute slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}

	// While draining, readiness and new compute must both answer 503.
	// The flip happens moments after signal delivery, so poll for it.
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, _ := d.get(t, "/readyz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ := d.post(t, "/v1/solve", "", map[string]any{"scheme": "Base", "workload": "mcf_m"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compute during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 carried no Retry-After")
	}

	a := <-inflight
	if a.err != nil || a.status != http.StatusOK {
		t.Fatalf("in-flight solve across the drain: status %d, err %v (%.200s), want 200", a.status, a.err, a.body)
	}
	var out struct{ Result struct{ IPC float64 } }
	if err := json.Unmarshal(a.body, &out); err != nil || out.Result.IPC <= 0 {
		t.Fatalf("in-flight solve's answer is not a result (IPC %g, err %v): %.200s", out.Result.IPC, err, a.body)
	}
	if err := d.wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v; stderr:\n%s", err, d.stderr.String())
	}
	stderr := d.stderr.String()
	if !strings.Contains(stderr, "draining") || !strings.Contains(stderr, "drained cleanly") {
		t.Fatalf("stderr lacks the drain narrative:\n%s", stderr)
	}
}

// TestDaemonSigtermAtReadyE2E: a SIGTERM sent the moment /readyz first
// answers 200 must drain, not kill, the daemon — the signal handler is
// installed before readiness is reported. The window is narrow, so this
// guards the ordering rather than reproducing the race on every run.
func TestDaemonSigtermAtReadyE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, nil, "-accesses", "300")
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := d.wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM at readiness: %v; stderr:\n%s", err, d.stderr.String())
	}
	if stderr := d.stderr.String(); !strings.Contains(stderr, "drained cleanly") {
		t.Fatalf("stderr lacks the drain narrative:\n%s", stderr)
	}
}
