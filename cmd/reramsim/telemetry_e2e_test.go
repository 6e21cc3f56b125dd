package main

import (
	"bufio"
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
	"testing"
	"time"
)

var listenLineRe = regexp.MustCompile(`telemetry listening on http://(\S+)`)

// TestTelemetryE2ESmoke launches a real sweep with -obs-addr and
// -trace-spans, polls /metrics mid-run until jobs_completed advances
// within the grid jobs_cells announces, and — after a clean exit 0 —
// checks the span trace is a valid Chrome trace-event file with the
// nested grid -> cell -> sim -> memsys.sim -> core.solve_op chain.
func TestTelemetryE2ESmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildBinary(t)
	traceFile := filepath.Join(t.TempDir(), "spans.json")

	// The sweep must outlive several scrapes so they can observe the
	// completed count moving; on a warm machine 4 cells of 40k accesses
	// run a few seconds.
	cmd := exec.Command(bin,
		"-scheme", "Base,UDRVR+PR", "-workload", "mcf_m,mil_m",
		"-accesses", "40000", "-json",
		"-obs-addr", "127.0.0.1:0",
		"-trace-spans", traceFile,
	)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The CLI prints "telemetry listening on http://ADDR" before the
	// sweep starts; parse the resolved address off stderr.
	var addr string
	var stderrTail strings.Builder
	sc := bufio.NewScanner(stderrPipe)
	for sc.Scan() {
		line := sc.Text()
		stderrTail.WriteString(line + "\n")
		if m := listenLineRe.FindStringSubmatch(line); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no telemetry listen line on stderr:\n%s", stderrTail.String())
	}
	go io.Copy(io.Discard, stderrPipe) // keep the pipe drained

	base := "http://" + addr
	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	// Mid-run /metrics must be valid Prometheus text with live series.
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"runtime_goroutines", "runtime_heap_alloc_bytes"} {
		if _, ok := metricLines(t, []byte(body))[want]; !ok {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Its jobs_* counters follow the grid: once the engine has taken on
	// the 4 cells (jobs_cells), jobs_completed advances while the sweep
	// runs.
	first := -1.0
poll:
	for deadline := time.Now().Add(2 * time.Minute); ; {
		_, body := get("/metrics")
		m := metricLines(t, []byte(body))
		switch cells, done := m["jobs_cells"], m["jobs_completed"]; {
		case cells == 0: // the suite is still calibrating
		case cells != 4:
			t.Fatalf("jobs_cells = %g, want 4", cells)
		case first < 0 && done == cells:
			t.Fatalf("the sweep finished before the first scrape that saw its grid")
		case first < 0:
			first = done
		case done > first:
			break poll
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs_completed never advanced mid-run (stuck at %g)", first)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("sweep exit: %v", err)
	}
	if !bytes.Contains(stdout.Bytes(), []byte(`"cells"`)) {
		t.Errorf("sweep JSON output missing:\n%s", stdout.Bytes())
	}

	// The span trace must be a valid JSON array of complete events with
	// the nested chain grid -> cell -> sim -> memsys.sim -> core.solve_op.
	blob, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
		Args struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
		} `json:"args"`
	}
	if err := json.Unmarshal(blob, &events); err != nil {
		t.Fatalf("span trace is not a valid trace-event array: %v", err)
	}
	byID := make(map[uint64]int, len(events))
	names := make(map[string]int, len(events))
	for i, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("event %d has ph %q, want X", i, ev.Ph)
		}
		byID[ev.Args.ID] = i
		names[strings.SplitN(ev.Name, ":", 2)[0]]++
	}
	for _, want := range []string{"jobs.grid", "cell", "sim", "memsys.sim", "core.solve_op"} {
		if names[want] == 0 {
			t.Errorf("span trace has no %q spans (got %v)", want, names)
		}
	}
	for _, ev := range events {
		if !strings.HasPrefix(ev.Name, "cell:") {
			continue
		}
		pi, ok := byID[ev.Args.Parent]
		if !ok || events[pi].Name != "jobs.grid" {
			t.Errorf("cell span %q does not nest under jobs.grid", ev.Name)
		}
	}
	for _, ev := range events {
		if !strings.HasPrefix(ev.Name, "sim:") {
			continue
		}
		pi, ok := byID[ev.Args.Parent]
		if !ok || !strings.HasPrefix(events[pi].Name, "cell:") {
			t.Errorf("sim span %q does not nest under its cell", ev.Name)
		}
	}
	for _, ev := range events {
		if ev.Name != "core.solve_op" {
			continue
		}
		pi, ok := byID[ev.Args.Parent]
		if !ok || !strings.HasPrefix(events[pi].Name, "memsys.sim:") {
			t.Errorf("core.solve_op span %d does not nest under a memsys.sim span", ev.Args.ID)
			break
		}
	}
	if t.Failed() {
		t.Logf("span name histogram: %v", names)
		fmt.Println(stderrTail.String())
	}
}
