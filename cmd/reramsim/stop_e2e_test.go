package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestCellTimeoutStopsCells: -cell-timeout reaches the simulation's
// event loop. Each cell of this sweep runs 1.9-2.8 s uninterrupted on a
// 2-vCPU host (over 20x the 50 ms deadline), so every one is stopped
// and quarantined as a timeout, and the run exits 3 (partial).
func TestCellTimeoutStopsCells(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildBinary(t)
	out, code := runCLI(t, bin, nil,
		"-scheme", "Base,UDRVR+PR", "-workload", "mcf_m,ast_m",
		"-accesses", "120000", "-jobs", "1", "-cell-timeout", "50ms")
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (partial)\n%s", code, out)
	}
	if n := bytes.Count(out, []byte("QUARANTINED (timeout)")); n != 4 {
		t.Errorf("%d cells quarantined as timeouts, want 4:\n%s", n, out)
	}
}

// TestSigintStopsSingleCell: SIGINT during a long single-cell run stops
// the simulation inside its event loop: exit 130, "interrupted" on
// stderr and no result on stdout. -obs-addr is there to tell when the
// signal handler is in place: /readyz answers 200 only after it is.
func TestSigintStopsSingleCell(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildBinary(t)
	cmd := exec.Command(bin, "-scheme", "UDRVR+PR", "-workload", "mcf_m",
		"-accesses", "200000", "-obs-addr", "127.0.0.1:0")
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

	var addr string
	var stderr strings.Builder
	sc := bufio.NewScanner(stderrPipe)
	for addr == "" && sc.Scan() {
		stderr.WriteString(sc.Text() + "\n")
		if m := listenLineRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
		}
	}
	if addr == "" {
		t.Fatalf("no telemetry listen line on stderr:\n%s", stderr.String())
	}
	rest := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(stderrPipe)
		rest <- string(b)
	}()
	for deadline := time.Now().Add(time.Minute); ; {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never answered 200")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Uninterrupted, the run takes several seconds more; half a second
	// in, the simulation is running.
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	stderr.WriteString(<-rest)
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if code != 130 || !strings.Contains(stderr.String(), "reramsim: interrupted") {
		t.Fatalf("exit = %d, want 130 with \"reramsim: interrupted\"; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted run printed a result:\n%s", stdout.String())
	}
}

// TestMetricsDumpSamplesRuntime: -metrics publishes a fresh sample of
// the runtime.* series even without -obs-addr, where nothing else
// samples them, and counts the run's one simulation.
func TestMetricsDumpSamplesRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := buildBinary(t)
	out, code := runCLI(t, bin, nil, "-scheme", "Base", "-workload", "mcf_m",
		"-accesses", "300", "-metrics", "-metrics-format", "json")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	// The human-readable result comes first; the registry dump is the
	// trailing JSON object.
	i := bytes.Index(out, []byte("\n{"))
	if i < 0 {
		t.Fatalf("no JSON registry dump in output:\n%s", out)
	}
	var snap struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(out[i:], &snap); err != nil {
		t.Fatalf("registry dump: %v\n%s", err, out[i:])
	}
	if c := snap.Counters["memsys.sims"]; c != 1 {
		t.Errorf("memsys.sims = %d, want 1", c)
	}
	if g := snap.Gauges["runtime.goroutines"]; g < 1 {
		t.Errorf("runtime.goroutines = %g, want >= 1", g)
	}
	if g := snap.Gauges["runtime.heap_sys_bytes"]; g <= 0 {
		t.Errorf("runtime.heap_sys_bytes = %g, want > 0", g)
	}
}

// TestLifetimeReachesSolveCache: -lifetime prices its worst-case write
// after the simulation, outside it. A 20-access simulation leaves four
// of the worst-case ops unpriced, so the first run's -metrics must
// count two cache writes (the simulation's memo dump, then the
// estimate's), and a second run on the same directory solves nothing
// and prints the same result.
func TestLifetimeReachesSolveCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI twice")
	}
	bin := buildBinary(t)
	args := []string{"-scheme", "Base", "-workload", "mcf_m", "-accesses", "20", "-lifetime", "-json",
		"-solve-cache", t.TempDir(), "-metrics", "-metrics-format", "json"}
	var results [2]json.RawMessage
	for i := range results {
		out, code := runCLI(t, bin, nil, args...)
		if code != 0 {
			t.Fatalf("run %d: exit = %d, want 0", i+1, code)
		}
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		if err := dec.Decode(&results[i]); err != nil {
			t.Fatalf("run %d: result: %v\n%s", i+1, err, out)
		}
		if err := dec.Decode(&snap); err != nil {
			t.Fatalf("run %d: registry dump: %v\n%s", i+1, err, out)
		}
		if w := snap.Counters["solvecache.writes"]; i == 0 && w != 2 {
			t.Errorf("first run: solvecache.writes = %d, want 2", w)
		}
		if m := snap.Counters["core.memo.misses"]; i == 1 && m != 0 {
			t.Errorf("second run missed the memo %d times, want 0", m)
		}
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("cold and warm results differ:\n%s\n%s", results[0], results[1])
	}
}
