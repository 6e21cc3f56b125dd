package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"reramsim/internal/atomicio"
	"reramsim/internal/core"
	"reramsim/internal/jobs"
	"reramsim/internal/memsys"
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

// countCells counts the journal's cell files in dir.
func countCells(t *testing.T, dir string) int {
	t.Helper()
	cells, err := filepath.Glob(filepath.Join(dir, "*.jrn"))
	if err != nil {
		t.Fatal(err)
	}
	return len(cells)
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
			if countCells(t, dir) >= 2 {
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
	journaled := countCells(t, dir)
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

// TestResumeSweepFigure: a sweep figure's cells are journaled like any
// other grid's. A Fig. 20 run journals all 66 of its cells; with every
// other cell file deleted, a fresh suite on a resumed engine serves the
// remaining 33 from disk (jobs.resumed), cells on the non-default ON/OFF
// ratios ("@"-suffixed keys) among them, and renders a byte-identical
// table.
func TestResumeSweepFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep figure twice")
	}
	dir := t.TempDir()
	open := func(resume bool) *Suite {
		s, err := NewSuite(200)
		if err != nil {
			t.Fatal(err)
		}
		digest, err := s.GridDigest(crossPairs(SchemeNames(), Workloads()))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := jobs.Open(jobs.Options{Dir: dir, Digest: digest, Resume: resume})
		if err != nil {
			t.Fatal(err)
		}
		s.SetEngine(eng)
		return s
	}

	s1 := open(false)
	want, err := s1.Fig20()
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.jrn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 66 {
		t.Fatalf("Fig. 20 journaled %d cell files, want 66", len(files))
	}
	variants := 0 // kept cell files with an "@" key
	for i, f := range files {
		if i%2 == 1 {
			if strings.Contains(filepath.Base(f), "@") {
				variants++
			}
			continue
		}
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}

	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.Default().ResetValues()
	})
	before := obs.Default().Snapshot()
	got, err := open(true).Fig20()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resumed Fig. 20 differs from the journaled run:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if resumed := obs.Default().Snapshot().Delta(before).Counters["jobs.resumed"]; resumed != 33 || variants == 0 {
		t.Errorf("resumed %d cells from 33 kept files, %d of them with an @ key; want 33, some with an @ key", resumed, variants)
	}
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

// TestRunGridRetriesJournalDiskFull: a sweep run the way the CLIs run
// it retries a transient journal failure instead of quarantining the
// cell. The engine gets exactly the options reramsim passes (checkpoint
// dir and grid digest), and two journal fsyncs fail with ENOSPC once it
// is open: every cell completes after two retries, with payloads
// byte-equal to a clean run's.
func TestRunGridRetriesJournalDiskFull(t *testing.T) {
	pairs := []SimPair{{Scheme: "Base", Workload: "mcf_m"}, {Scheme: "UDRVR+PR", Workload: "mcf_m"}}
	run := func(syncFailures int64) *jobs.Report {
		s := freshSuite(t)
		digest, err := s.GridDigest(pairs)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := jobs.Open(jobs.Options{Dir: t.TempDir(), Digest: digest})
		if err != nil {
			t.Fatal(err)
		}
		var fails atomic.Int64
		fails.Store(syncFailures)
		prev := atomicio.SetHook(func(dest, stage string) error {
			if stage == atomicio.StageSync && fails.Add(-1) >= 0 {
				return syscall.ENOSPC
			}
			return nil
		})
		defer atomicio.SetHook(prev)
		rep, err := s.RunGridContext(context.Background(), eng, pairs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	clean := run(0)
	rep := run(2)
	if !rep.Complete() || rep.Retries != 2 {
		t.Fatalf("quarantined=%v retries=%d, want none and 2", rep.Quarantined, rep.Retries)
	}
	for _, p := range pairs {
		key := p.Scheme + "/" + p.Workload
		if got, want := rep.Done[key], clean.Done[key]; len(want) == 0 || string(got) != string(want) {
			t.Errorf("%s payload after retries differs from the clean run:\nwant: %s\ngot:  %s", key, want, got)
		}
	}
}

// TestConfigsAreData: the structs GridDigest hashes as JSON
// (memsys.Config, xpoint.Config with device.Params) and core's
// optionsDigest hashes with %#v (core.Options) must hold only exported
// plain data. A hook field would escape the JSON digest behind a
// json:"-" tag, or put a pointer address into a solve-cache key.
func TestConfigsAreData(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Func, reflect.Chan, reflect.Pointer, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s, not data", path, typ.Kind())
		case reflect.Array, reflect.Slice:
			walk(path+"[]", typ.Elem())
		case reflect.Map:
			walk(path+"[key]", typ.Key())
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				fp := path + "." + f.Name
				if !f.IsExported() {
					t.Errorf("%s is unexported", fp)
				}
				if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "-" {
					t.Errorf("%s is tagged json:\"-\"", fp)
				}
				walk(fp, f.Type)
			}
		}
	}
	for _, v := range []any{memsys.Config{}, xpoint.Config{}, core.Options{}} {
		typ := reflect.TypeOf(v)
		walk(typ.String(), typ)
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
	b.Cfg.Size = 256
	if d, _ := b.GridDigest(pairs); d == da {
		t.Error("digest ignored an array-config change")
	}
	b.Cfg = a.Cfg
	if d, _ := b.GridDigest(pairs[:3]); d == da {
		t.Error("digest ignored a grid change")
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
