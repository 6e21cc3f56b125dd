package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"reramsim/internal/jobs"
	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/xpoint"
)

var (
	resumeSchemes   = []string{"Base", "UDRVR+PR"}
	resumeWorkloads = []string{"mcf_m", "mil_m"}
)

// gridJSON serializes everything a sweep figure would read from the
// suite — the byte-identity probe shared by the resume tests. The suite
// must already be primed.
func gridJSON(t *testing.T, s *Suite) []byte {
	t.Helper()
	type point struct {
		Scheme, Workload string
		IPC              float64
		Reads, Writes    uint64
		AvgReadLatency   float64
		EnergyTotal      float64
	}
	var pts []point
	for _, sc := range resumeSchemes {
		for _, w := range resumeWorkloads {
			r, err := s.Sim(sc, w)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, point{sc, w, r.IPC, r.Reads, r.Writes, r.AvgReadLatency, r.Energy.Total()})
		}
	}
	ext, err := s.ExtReadMargin()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(struct {
		Ext    string
		Points []point
	}{ext, pts})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func freshSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(400)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jrn"))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

// testResumeByteIdentical is the satellite-4 scenario: start a journaled
// sweep, cancel it in-process after K cells have checkpointed, then
// resume into a fresh suite and require the final sweep JSON to be
// byte-identical to an uninterrupted engine-less run — with the
// journaled cells served from disk, not re-simulated.
func testResumeByteIdentical(t *testing.T, jobsN int) {
	par.SetJobs(jobsN)
	t.Cleanup(func() { par.SetJobs(0) })
	pairs := crossPairs(resumeSchemes, resumeWorkloads)

	// Reference: uninterrupted, engine-less.
	ref := freshSuite(t)
	if err := ref.PrimeSims(pairs); err != nil {
		t.Fatal(err)
	}
	want := gridJSON(t, ref)

	// Interrupted run: cancel (with a distinctive cause) once the
	// journal holds at least two completed cells.
	dir := t.TempDir()
	s1 := freshSuite(t)
	digest, err := s1.GridDigest(pairs)
	if err != nil {
		t.Fatal(err)
	}
	eng1, err := jobs.Open(jobs.Options{Dir: dir, Digest: digest})
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("test: simulated crash")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	s1.SetContext(ctx)
	s1.SetEngine(eng1)
	stopWatch := make(chan struct{})
	go func() {
		defer close(stopWatch)
		for {
			if countSegments(t, dir) >= 2 {
				cancel(errStop)
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	perr := s1.PrimeSims(pairs)
	<-stopWatch
	journaled := countSegments(t, dir)
	if perr != nil && !errors.Is(perr, errStop) {
		t.Fatalf("interrupted PrimeSims: err = %v, want the cancellation cause", perr)
	}
	if journaled == 0 {
		t.Fatal("no cells journaled before the simulated crash")
	}

	// Resume into a fresh suite: journaled cells must be served from
	// disk (jobs.resumed metric), the rest simulated, and the rendered
	// JSON byte-identical to the uninterrupted reference.
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})
	before := obs.Default().Snapshot()

	s2 := freshSuite(t)
	eng2, err := jobs.Open(jobs.Options{Dir: dir, Digest: digest, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	s2.SetEngine(eng2)
	if err := s2.PrimeSims(pairs); err != nil {
		t.Fatal(err)
	}
	delta := obs.Default().Snapshot().Delta(before)
	if got := delta.Counters["jobs.resumed"]; got != uint64(journaled) {
		t.Errorf("jobs.resumed = %d, want %d (the journaled cells must be skipped, not re-run)", got, journaled)
	}
	if got := delta.Counters["jobs.completed"]; got != uint64(len(pairs)-journaled) {
		t.Errorf("jobs.completed = %d, want %d", got, len(pairs)-journaled)
	}
	if got := gridJSON(t, s2); string(got) != string(want) {
		t.Errorf("resumed sweep JSON differs from uninterrupted run:\nwant: %s\ngot:  %s", want, got)
	}
}

func TestResumeByteIdenticalJobs1(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three compact sweeps")
	}
	testResumeByteIdentical(t, 1)
}

func TestResumeByteIdenticalJobs8(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three compact sweeps")
	}
	testResumeByteIdentical(t, 8)
}

// TestPrimeSimsQuarantineWrapsErr: a panicking cell must not fail the
// grid mid-flight — the other cells finish, and PrimeSims reports the
// quarantine as an error wrapping jobs.ErrQuarantined.
func TestPrimeSimsQuarantineWrapsErr(t *testing.T) {
	pairs := crossPairs(resumeSchemes, resumeWorkloads)
	s := freshSuite(t)
	digest, err := s.GridDigest(pairs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := jobs.Open(jobs.Options{Dir: t.TempDir(), Digest: digest, TestPanicKey: "Base/mil_m"})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEngine(eng)
	perr := s.PrimeSims(pairs)
	if !errors.Is(perr, jobs.ErrQuarantined) {
		t.Fatalf("PrimeSims err = %v, want a jobs.ErrQuarantined wrap", perr)
	}
	// Every other cell completed despite the panic.
	for _, p := range pairs {
		if p.Scheme == "Base" && p.Workload == "mil_m" {
			continue
		}
		if _, err := s.Sim(p.Scheme, p.Workload); err != nil {
			t.Errorf("%s/%s did not survive the quarantined neighbour: %v", p.Scheme, p.Workload, err)
		}
	}
}

// TestGridDigestPinsConfig: the digest must be stable for identical
// sweeps and differ when any ingredient of the sweep changes.
func TestGridDigestPinsConfig(t *testing.T) {
	pairs := crossPairs(resumeSchemes, resumeWorkloads)
	a := freshSuite(t)
	b := freshSuite(t)
	da, err := a.GridDigest(pairs)
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.GridDigest(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("identical sweeps produced different digests:\n%s\n%s", da, db)
	}
	b.MemCfg.Seed = 99
	if d, _ := b.GridDigest(pairs); d == da {
		t.Error("digest ignored a memory-config change")
	}
	b.MemCfg.Seed = a.MemCfg.Seed
	if d, _ := b.GridDigest(pairs[:3]); d == da {
		t.Error("digest ignored a grid change")
	}
	// The heartbeat hook must not enter the digest (json:"-").
	b.MemCfg.Heartbeat = func() {}
	if d, err := b.GridDigest(pairs); err != nil || d != da {
		t.Errorf("digest with heartbeat hook: %q (err %v), want %q", d, err, da)
	}
	// A literal digest: journals written by earlier builds must keep
	// matching. The uncalibrated default config keeps
	// fitted floats out of the value.
	const pinned = "grid-v1-4fbe3f924503459db1fac94a023e3b9a3a7f91f71224da6d9409acc26d6cf8c1"
	lit := []SimPair{{Scheme: "Base", Workload: "mcf_m"}, {Scheme: "UDRVR+PR", Workload: "mil_m"}}
	if d, err := newSuitePrecalibrated(xpoint.DefaultConfig(), 1200).GridDigest(lit); err != nil || d != pinned {
		t.Errorf("default-config digest = %q (err %v), want %q", d, err, pinned)
	}
}
