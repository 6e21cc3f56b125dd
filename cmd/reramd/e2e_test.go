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
}

var servingRe = regexp.MustCompile(`serving on http://(\S+)`)

// startDaemon launches the binary on a kernel-assigned port, waits for
// /readyz, and returns the live endpoint.
func startDaemon(t *testing.T, bin string, env []string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	errBuf := &syncBuffer{}
	cmd.Stderr = errBuf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	d := &daemon{cmd: cmd, stderr: errBuf}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	deadline := time.Now().Add(60 * time.Second)
	for d.base == "" {
		if m := servingRe.FindStringSubmatch(errBuf.String()); m != nil {
			d.base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stderr:\n%s", errBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready; stderr:\n%s", errBuf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (d *daemon) post(t *testing.T, path, client string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
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

// TestDaemonDedupE2E: 32 concurrent identical sweeps against the real
// suite must execute exactly one grid — asserted both registry-exact
// (one job id, 31 responses marked deduped) and via the serve.deduped /
// serve.jobs_run metric series.
func TestDaemonDedupE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, nil, "-accesses", "2000", "-jobs", "2")

	req := map[string]any{
		"schemes":   []string{"Base", "UDRVR+PR"},
		"workloads": []string{"mcf_m", "mil_m"},
		"wait":      true,
	}
	const n = 32
	type result struct {
		JobID   string `json:"job_id"`
		State   string `json:"state"`
		Deduped bool   `json:"deduped"`
	}
	results := make([]result, n)
	errs := make(chan error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, body := d.post(t, "/v1/sweep", fmt.Sprintf("client-%d", i), req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d (%s)", i, resp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &results[i]); err != nil {
				errs <- fmt.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	deduped := 0
	for i, r := range results {
		if r.State != "done" {
			t.Fatalf("request %d: state %q, want done", i, r.State)
		}
		if r.JobID != results[0].JobID {
			t.Fatalf("requests split across jobs: %q vs %q", r.JobID, results[0].JobID)
		}
		if r.Deduped {
			deduped++
		}
	}
	if deduped != n-1 {
		t.Fatalf("%d responses deduped, want exactly %d", deduped, n-1)
	}

	_, metrics := d.get(t, "/metrics")
	if v, ok := metricValue(t, string(metrics), "serve_jobs_run"); !ok || v != 1 {
		t.Fatalf("serve_jobs_run = %v (found=%v), want exactly 1", v, ok)
	}
	if v, ok := metricValue(t, string(metrics), "serve_deduped"); !ok || v != n-1 {
		t.Fatalf("serve_deduped = %v (found=%v), want %d", v, ok, n-1)
	}
}

// TestDaemonShedE2E: an over-quota client is shed with 429 +
// Retry-After while an in-quota client's requests complete.
func TestDaemonShedE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, nil, "-accesses", "300", "-rate", "0.001", "-burst", "3")

	req := map[string]any{"scheme": "Base", "workload": "mcf_m"}
	var ok, shed int
	var sawRetryAfter bool
	for i := 0; i < 10; i++ {
		resp, body := d.post(t, "/v1/solve", "greedy", req)
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") != "" {
				sawRetryAfter = true
			}
		default:
			t.Fatalf("request %d: unexpected status %d (%s)", i, resp.StatusCode, body)
		}
	}
	if ok != 3 || shed != 7 {
		t.Fatalf("greedy client: ok=%d shed=%d, want 3 ok / 7 shed (burst=3)", ok, shed)
	}
	if !sawRetryAfter {
		t.Fatal("no 429 carried a Retry-After header")
	}
	if resp, body := d.post(t, "/v1/solve", "polite", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-quota client got %d (%s), want 200", resp.StatusCode, body)
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

// TestDaemonDrainE2E: SIGTERM mid-sweep drains gracefully — new
// requests are refused with 503, the in-flight sweep finishes and its
// journal is on disk, and the process exits 0.
func TestDaemonDrainE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	root := t.TempDir()
	// -jobs 1 serialises the grid so the sweep reliably outlives the
	// SIGTERM we send right after submission.
	d := startDaemon(t, bin, nil, "-accesses", "20000", "-jobs", "1", "-checkpoint-root", root)

	resp, body := d.post(t, "/v1/sweep", "", map[string]any{
		"schemes":   []string{"Base", "DRVR", "UDRVR+PR"},
		"workloads": []string{"mcf_m", "mil_m"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, body)
	}
	var doc struct {
		JobID  string `json:"job_id"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("submit doc: %v", err)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}

	// While draining, readiness and new compute must both answer 503.
	// The flip happens moments after signal delivery, so poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ = d.get(t, "/readyz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ = d.post(t, "/v1/solve", "", map[string]any{"scheme": "Base", "workload": "mcf_m"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compute during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 carried no Retry-After")
	}

	err := d.cmd.Wait()
	if err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v; stderr:\n%s", err, d.stderr.String())
	}
	stderr := d.stderr.String()
	if !strings.Contains(stderr, "draining") || !strings.Contains(stderr, "drained cleanly") {
		t.Fatalf("stderr lacks the drain narrative:\n%s", stderr)
	}
	// The in-flight sweep checkpointed: its per-digest journal directory
	// exists and holds journal state.
	jdir := filepath.Join(root, doc.Digest)
	entries, derr := os.ReadDir(jdir)
	if derr != nil {
		t.Fatalf("journal dir for in-flight sweep: %v", derr)
	}
	if len(entries) == 0 {
		t.Fatalf("journal dir %s is empty — the drained sweep never checkpointed", jdir)
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
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM at readiness: %v; stderr:\n%s", err, d.stderr.String())
	}
	if stderr := d.stderr.String(); !strings.Contains(stderr, "drained cleanly") {
		t.Fatalf("stderr lacks the drain narrative:\n%s", stderr)
	}
}
