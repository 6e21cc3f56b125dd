package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestCellTimeoutAlone: -cell-timeout bounds every simulation cell,
// with or without a checkpoint directory. A 1 ns deadline expires
// before any of Fig. 15's 77 cells can start, so every one is
// quarantined, the table is not printed, and the run exits 3
// (partial).
func TestCellTimeoutAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := filepath.Join(t.TempDir(), "figures")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-exp", "fig15", "-accesses", "300", "-cell-timeout", "1ns")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %s: %v\n%s", bin, err, stderr.Bytes())
	}
	t.Logf("exit %d, stderr:\n%s", code, stderr.Bytes())
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (partial)\n%s", code, stdout.Bytes())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("77 cell(s) quarantined")) {
		t.Error("stderr does not report Fig. 15's 77 cells quarantined")
	}
	if bytes.Contains(stdout.Bytes(), []byte("Fig. 15")) {
		t.Errorf("Fig. 15 rendered despite its quarantined cells:\n%s", stdout.Bytes())
	}
}
