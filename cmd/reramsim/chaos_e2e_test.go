package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// chaosPlanArg is the seeded fault plan both chaos e2e tests run under.
// ENOSPC episodes are deliberately absent: the first atomicio write in a
// coordinator process is the journal manifest at startup, so a disk-full
// episode there aborts the run before any cell executes — that fault is
// exercised where it can land mid-sweep (the internal/chaos fleet test
// and the atomicio unit tests).
const chaosPlanArg = "seed=7,latency=5ms,latency-p=0.2,drop=0.05,reset=0.05,truncate=0.05,flip=0.05"

// splitMetricsDoc splits a "-json -metrics -metrics-format json" stdout
// into the sweep document and the trailing metrics snapshot.
func splitMetricsDoc(t *testing.T, stdout []byte) (sweep []byte, counters map[string]uint64) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(stdout))
	var first json.RawMessage
	if err := dec.Decode(&first); err != nil {
		t.Fatalf("decoding sweep document: %v\nstdout:\n%s", err, stdout)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("decoding metrics document: %v\nstdout:\n%s", err, stdout)
	}
	return first, snap.Counters
}

// TestChaosDistByteIdentity: a coordinator under a seeded fault plan,
// fed by three chaos-wrapped workers plus one worker that corrupts every
// segment it ships, must still produce sweep output byte-identical to a
// clean single-process run — and the dist.* counters must show the
// corrupt segments were refused and the offender's health score fell
// through demotion into a ban.
func TestChaosDistByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI six times under fault injection")
	}
	bin := buildBinary(t)

	local := exec.Command(bin, append(append([]string(nil), distGridArgs...), "-jobs", "8")...)
	localOut, err := local.Output()
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}

	ckpt := filepath.Join(t.TempDir(), "ckpt")
	cmd, addr, stdout, stderr := startCoordinatorProc(t, bin,
		"-lease-ttl", "1s",
		"-checkpoint-dir", ckpt,
		"-chaos", chaosPlanArg,
		"-metrics", "-metrics-format", "json",
	)
	// The vandal: every segment it ships has a byte flipped in transit.
	// It joins alone, and the honest workers join only once the
	// coordinator has refused its first segment: started together, the
	// honest three could drain the grid before it ever held a lease.
	startWorkerProc(t, bin, addr,
		"RERAM_CHAOS="+chaosPlanArg,
		"RERAMSIM_DIST_CORRUPT_CELL=*",
	)
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(stderr.String(), "bad segment from") {
		if time.Now().After(deadline) {
			t.Fatalf("the corrupt worker's first segment was never refused; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		startWorkerProc(t, bin, addr, "RERAM_CHAOS="+chaosPlanArg)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("coordinator exit: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "chaos plan installed") {
		t.Errorf("coordinator stderr missing chaos-plan banner:\n%s", stderr.String())
	}

	sweep, counters := splitMetricsDoc(t, []byte(stdout.String()))
	if !bytes.Equal(bytes.TrimSpace(sweep), bytes.TrimSpace(localOut)) {
		t.Errorf("chaos-run sweep output differs from clean single-process run:\n--- chaos ---\n%s\n--- clean ---\n%s", sweep, localOut)
	}
	if counters["dist.segments.bad"] == 0 {
		t.Errorf("dist.segments.bad = 0; the corrupt worker's segments were never refused\ncounters: %v", counters)
	}
	if counters["dist.health.demotions"] == 0 {
		t.Errorf("dist.health.demotions = 0; the corrupt worker was never demoted\ncounters: %v", counters)
	}
	if counters["dist.health.bans"] == 0 {
		t.Errorf("dist.health.bans = 0; the corrupt worker was never banned\ncounters: %v", counters)
	}
}

// TestChaosAuditDivergence: with -audit-fraction=1.0 every completed
// cell is re-leased to a second worker for a digest cross-check. One
// worker computes a subtly wrong (but well-formed) payload for one cell;
// whichever side of the audit it lands on, the divergence must be
// detected, the cell quarantined, and the sweep must exit 3 (partial)
// with the audit counters showing the catch.
func TestChaosAuditDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI under audit re-execution")
	}
	bin := buildBinary(t)

	const poisoned = "Base/mcf_m"
	cmd, addr, stdout, stderr := startCoordinatorProc(t, bin,
		"-lease-ttl", "1s",
		"-audit-fraction", "1.0",
		"-metrics", "-metrics-format", "json",
	)
	startWorkerProc(t, bin, addr, "RERAMSIM_DIST_DIVERGE_CELL="+poisoned)
	startWorkerProc(t, bin, addr)

	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("coordinator exit = %v, want exit code 3 (partial: quarantined cells)\nstderr:\n%s", err, stderr.String())
	}

	sweep, counters := splitMetricsDoc(t, []byte(stdout.String()))
	var doc struct {
		Cells []struct {
			Scheme      string `json:"scheme"`
			Workload    string `json:"workload"`
			Quarantined *struct {
				Reason string `json:"reason"`
			} `json:"quarantined"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(sweep, &doc); err != nil {
		t.Fatalf("sweep document: %v", err)
	}
	var quarantined int
	for _, c := range doc.Cells {
		if c.Quarantined == nil {
			continue
		}
		quarantined++
		if key := c.Scheme + "/" + c.Workload; key != poisoned {
			t.Errorf("cell %s quarantined (%s); only %s should diverge", key, c.Quarantined.Reason, poisoned)
		} else if c.Quarantined.Reason != "audit" {
			t.Errorf("cell %s quarantined with reason %q, want %q", key, c.Quarantined.Reason, "audit")
		}
	}
	if quarantined != 1 {
		t.Errorf("%d cells quarantined, want exactly 1 (%s)\nstderr:\n%s", quarantined, poisoned, stderr.String())
	}
	if counters["dist.audits.scheduled"] == 0 {
		t.Errorf("dist.audits.scheduled = 0 with -audit-fraction=1.0\ncounters: %v", counters)
	}
	if counters["dist.audits.failed"] == 0 {
		t.Errorf("dist.audits.failed = 0; the divergence was never caught\ncounters: %v", counters)
	}
	if !strings.Contains(stderr.String(), "quarantined "+poisoned+" (audit)") {
		t.Errorf("stderr missing the audit quarantine report:\n%s", stderr.String())
	}
}
