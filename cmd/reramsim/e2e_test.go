package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles cmd/reramsim once per test binary.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "reramsim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

var sweepArgs = []string{
	"-scheme", "Base,UDRVR+PR", "-workload", "mcf_m,mil_m",
	"-accesses", "300", "-jobs", "1", "-json",
}

func runSweepCmd(t *testing.T, bin string, extraEnv []string, extraArgs ...string) (stdout []byte, exitCode int) {
	t.Helper()
	return runCLI(t, bin, extraEnv, append(append([]string(nil), sweepArgs...), extraArgs...)...)
}

// runCLI runs the binary to completion and returns its stdout and exit
// code; stderr goes to the test log.
func runCLI(t *testing.T, bin string, extraEnv []string, args ...string) (stdout []byte, exitCode int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %s: %v\n%s", bin, err, errb.Bytes())
	}
	t.Logf("exit %d, stderr:\n%s", code, errb.Bytes())
	return out.Bytes(), code
}

// metricLines parses the Prometheus text that /metrics serves and that
// -metrics prints after the result: every "name value" line from the
// first "# TYPE" header on, keyed by the exposed name (memsys_sims).
func metricLines(t *testing.T, out []byte) map[string]float64 {
	t.Helper()
	i := bytes.Index(out, []byte("# TYPE "))
	if i < 0 {
		t.Fatalf("no metrics exposition in output:\n%s", out)
	}
	vals := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(string(out[i:])), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			t.Fatalf("bad exposition line %q", line)
		}
		vals[name] = v
	}
	return vals
}

// TestQuarantineExitCodeSmoke: a deliberately panicking cell must yield
// the partial exit code without failing the rest of the grid, and a
// resume without the panic hook must heal the journal — producing exit 0
// and output byte-identical to an uninterrupted run.
func TestQuarantineExitCodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI three times")
	}
	bin := buildBinary(t)
	dir := t.TempDir()

	clean, code := runSweepCmd(t, bin, nil)
	if code != 0 {
		t.Fatalf("clean sweep exit = %d, want 0", code)
	}

	out, code := runSweepCmd(t, bin, []string{"RERAMSIM_PANIC_CELL=Base/mil_m"}, "-checkpoint-dir", dir)
	if code != 3 {
		t.Fatalf("sweep with panicking cell exit = %d, want 3 (partial)", code)
	}
	if !bytes.Contains(out, []byte(`"quarantined"`)) {
		t.Errorf("partial JSON does not mark the quarantined cell:\n%s", out)
	}
	if !bytes.Contains(out, []byte(`"UDRVR+PR"`)) {
		t.Errorf("partial JSON is missing surviving cells — the panic failed the grid:\n%s", out)
	}

	healed, code := runSweepCmd(t, bin, nil, "-resume", dir)
	if code != 0 {
		t.Fatalf("healing resume exit = %d, want 0", code)
	}
	if !bytes.Equal(healed, clean) {
		t.Errorf("healed resume output differs from uninterrupted run:\nclean: %s\nhealed: %s", clean, healed)
	}
}

// TestSigtermResumeByteIdentical: SIGTERM mid-sweep must exit 130 after
// flushing the journal, and a -resume run must finish the grid with
// output byte-identical to an uninterrupted run.
func TestSigtermResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI three times")
	}
	bin := buildBinary(t)
	dir := t.TempDir()

	clean, code := runSweepCmd(t, bin, nil)
	if code != 0 {
		t.Fatalf("clean sweep exit = %d, want 0", code)
	}

	cmd := exec.Command(bin, append(append([]string(nil), sweepArgs...), "-checkpoint-dir", dir)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill once the first cell has checkpointed (or give up waiting and
	// let the run finish — the resume still has to be byte-identical).
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		cells, _ := filepath.Glob(filepath.Join(dir, "*.jrn"))
		if len(cells) >= 1 {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	err := cmd.Wait()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("interrupted run: %v\n%s", err, errb.Bytes())
	}
	t.Logf("interrupted run exit %d, stderr:\n%s", code, errb.Bytes())
	if code != 0 && code != 130 {
		t.Fatalf("SIGTERM'd sweep exit = %d, want 130 (or 0 if it won the race)", code)
	}

	resumed, rcode := runSweepCmd(t, bin, nil, "-resume", dir)
	if rcode != 0 {
		t.Fatalf("resume exit = %d, want 0", rcode)
	}
	if !bytes.Equal(resumed, clean) {
		t.Errorf("resumed output differs from uninterrupted run:\nclean: %s\nresumed: %s", clean, resumed)
	}
}
