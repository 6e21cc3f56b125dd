// Command benchmark measures reramsim end to end and layer by layer.
//
// It builds cmd/reramsim and cmd/reramd from the repository it sits in
// and drives them as subprocesses, with tracing off, for the end-to-end
// metrics of four workloads: sweep_cold, sweep_warm, sweep_faults and
// served_solve. A separate in-process traced run times calls into each
// layer's public functions for the per-layer metrics. Every metric is
// printed by name with its unit, as a table and as one JSON document on
// the last line of standard output. Output checks feed the failure
// count; the exit status is non-zero if any check fails.
//
//	bash benchmark/run.sh --workload sweep_cold --seed 3 --seconds 25 --trace 0
//	cd benchmark && go run . -seed 1 -out /tmp/bench   # all workloads and the traced run
//
// See README.md for the metric, layer and workload map.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// workloadNames lists the end-to-end workloads in run order.
var workloadNames = []string{"sweep_cold", "sweep_warm", "sweep_faults", "served_solve"}

// sizes fixes how much work one run does; the smoke test shrinks it.
type sizes struct {
	accesses     int           // -accesses of sweep_cold, sweep_faults, served_solve and the traced run
	warmAccesses int           // -accesses of sweep_warm
	setups       int           // set-up repetitions per workload run, at least ...
	setupFor     time.Duration // ... and until this much time has passed
	sessionKeys  int           // /v1/solve requests per served session
	cachedKeys   int           // keys re-requested by the traced run's serve step
	solveReps    int           // timed repetitions of each op of xpoint.solve_us
}

var fullSizes = sizes{accesses: 1200, warmAccesses: 4000, setups: 3, setupFor: time.Second, sessionKeys: 88, cachedKeys: 22, solveReps: 5}

// options is one invocation.
type options struct {
	workloads   []string
	seed        int64
	window      time.Duration // measured time per workload run
	e2e, traced bool
	out         string
	size        sizes
	expect      func(map[string][32]byte) // see bench.expect
}

// bench holds what every workload run shares.
type bench struct {
	bin     string // the built reramsim and reramd
	scratch string // solve caches and journals of this invocation
	seed    int64
	window  time.Duration
	jobs    int // the program's -jobs and the served client count: nproc
	size    sizes
	// expect, when set, edits the expected cell digests before any output
	// is compared with them; tests use it to show that a wrong cell fails.
	expect func(map[string][32]byte)
}

// repeatSetup runs one set-up step at least b.size.setups times and for at
// least b.size.setupFor, each bracketed by host probes, and returns the
// steps' timings. Cheap set-ups repeat more, so their median settles.
func (b *bench) repeatSetup(ctx context.Context, br *bracket, step func(i int) (time.Duration, error)) ([]timing, error) {
	var times []timing
	start := time.Now()
	for i := 0; i < b.size.setups || time.Since(start) < b.size.setupFor; i++ {
		t, err := br.time(func() (time.Duration, error) { return step(i) })
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		times = append(times, t)
	}
	return times, nil
}

// section is the outcome of one workload run, or of the traced run.
type section struct {
	Name    string
	Samples int
	Metrics []metric             // the metrics BENCHMARK.json names
	Raw     []metric             // raw wall-clock counterparts, for reading only
	Series  map[string][]float64 // every sample behind the metrics, for result.json
	Took    time.Duration        // wall time of the whole section, set-up and checks included
	tally
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (s *section) add(name string, value float64, unit string) {
	s.Metrics = append(s.Metrics, metric{name, finite(value), unit})
}

// addTimed adds a host-normalized time metric and its raw counterpart.
func (s *section) addTimed(name string, norm, raw float64, unit string) {
	s.add(name, norm, unit)
	s.Raw = append(s.Raw, metric{name + ".raw", finite(raw), unit})
}

// finite maps the NaN or Inf of a run where nothing succeeded to 0, which
// JSON can carry; such a run is already marked incorrect.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// addE2E adds the metrics every workload reports, host-normalized: the
// median latency of the successful results, the cells they hold per second
// of sample time (failed samples count as time without cells), the median
// set-up time and the mean peak RSS. The RSS is a mean because a process's
// peak lands in one of two GC-timing modes ~10% apart, and a median flips
// between them.
func (s *section) addE2E(lat []timing, cells int, samples, setups []timing, rssMB []float64) {
	latMS, latRaw := seriesOf(lat, 1e3)
	sampleS, sampleRaw := seriesOf(samples, 1)
	setupS, setupRaw := seriesOf(setups, 1)
	s.addTimed("latency_ms.p50", median(latMS), median(latRaw), "ms")
	s.Raw = append(s.Raw, metric{"latency_ms.p50.above", float64(above(len(latMS), 50)), "count"})
	s.addTimed("cells_per_s", float64(cells)/sum(sampleS), float64(cells)/sum(sampleRaw), "1/s")
	s.addTimed("setup_s", median(setupS), median(setupRaw), "s")
	s.add("rss_mb", mean(rssMB), "MB")
	var probes []float64
	for _, t := range slices.Concat(samples, setups) {
		probes = append(probes, ms(t.probe()))
	}
	s.Raw = append(s.Raw, metric{"host_probe_ms.p50", median(probes), "ms"})
	s.Series = map[string][]float64{
		"latency_ms": latMS, "latency_ms.raw": latRaw, "sample_s": sampleS, "sample_s.raw": sampleRaw,
		"setup_s": setupS, "setup_s.raw": setupRaw, "probe_ms": probes, "rss_mb": rssMB,
	}
}

// seriesOf returns the normalized and raw times of ts in seconds × scale.
func seriesOf(ts []timing, scale float64) (norm, raw []float64) {
	for _, t := range ts {
		norm = append(norm, scale*t.norm().Seconds())
		raw = append(raw, scale*t.raw.Seconds())
	}
	return norm, raw
}

// host is the record every result file carries.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default all)")
	seed := fs.Int64("seed", 1, "workload seed: reramsim's -seed and the served request order")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload run")
	traceMode := fs.Int("trace", -1, "0: end-to-end metrics only; 1: the traced per-layer run only; default both")
	out := fs.String("out", "", "directory for result.json and trace.json (default .bench_build/out in the repository)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), out: *out, size: fullSizes}
	switch {
	case *workload == "":
		o.workloads = workloadNames
	case slices.Contains(workloadNames, *workload):
		o.workloads = []string{*workload}
	default:
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	switch *traceMode {
	case -1:
		o.e2e, o.traced = true, true
	case 0:
		o.e2e = true
	case 1:
		o.traced = true
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %d: want 0 or 1\n", *traceMode)
		return 2
	}
	return execute(ctx, o, stdout, stderr)
}

// execute builds the program, runs the selected workloads and the traced
// run, and reports. It returns the exit status.
func execute(ctx context.Context, o options, stdout, stderr io.Writer) int {
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fatal(err)
	}
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_build", "out")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return fatal(err)
	}
	scratch, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(scratch)

	b := &bench{
		bin: filepath.Join(root, ".bench_build", "bin"), scratch: scratch,
		seed: o.seed, window: o.window, jobs: runtime.NumCPU(), size: o.size, expect: o.expect,
	}
	// A fixed output directory lets go build skip relinking binaries that
	// are already up to date.
	build := exec.CommandContext(ctx, "go", "build", "-o", b.bin+string(filepath.Separator), "./cmd/reramsim", "./cmd/reramd")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return fatal(fmt.Errorf("building the program: %w\n%s", err, msg))
	}
	h := hostRecord(ctx, root, o.seed)

	var secs []*section
	var spans []span
	if o.e2e {
		for _, name := range o.workloads {
			start := time.Now()
			sec, err := b.runWorkload(ctx, name)
			if err != nil {
				return fatal(fmt.Errorf("%s: %w", name, err))
			}
			sec.Took = time.Since(start)
			secs = append(secs, sec)
		}
	}
	if o.traced {
		start := time.Now()
		tctx, cancel := context.WithTimeout(ctx, 150*time.Second)
		sec, sp, err := b.traced(tctx, strings.Join(o.workloads, ","))
		cancel()
		if err != nil {
			return fatal(fmt.Errorf("traced run: %w", err))
		}
		sec.Took = time.Since(start)
		secs, spans = append(secs, sec), sp
		if err := writeChromeTrace(filepath.Join(o.out, "trace.json"), spans); err != nil {
			return fatal(err)
		}
	}
	selfs := selfTimes(spans)

	printTable(stdout, h, secs, selfs)
	doc := summarize(secs)
	full := map[string]any{"host": h, "seconds": o.window.Seconds(), "sections": sectionDocs(secs), "self_time": selfs, "result": doc}
	if err := writeJSON(filepath.Join(o.out, "result.json"), full); err != nil {
		return fatal(err)
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !doc.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one end-to-end workload under a deadline that leaves
// room for set-up and the last sample past the measured window.
func (b *bench) runWorkload(ctx context.Context, name string) (*section, error) {
	ctx, cancel := context.WithTimeout(ctx, b.window+100*time.Second)
	defer cancel()
	switch name {
	case "sweep_cold":
		return b.sweep(ctx, name, sweepSpec{accesses: b.size.accesses, profile: "none"})
	case "sweep_warm":
		return b.sweep(ctx, name, sweepSpec{accesses: b.size.warmAccesses, profile: "none", warm: true})
	case "sweep_faults":
		return b.sweep(ctx, name, sweepSpec{accesses: b.size.accesses, profile: "margin"})
	case "served_solve":
		return b.served(ctx)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valuedUnit `json:"metrics"`
}

type valuedUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds the sections into the result line. With one section the
// metric names are bare; with several each is prefixed "section:".
func summarize(secs []*section) result {
	r := result{Correct: true, Metrics: make(map[string]valuedUnit)}
	for _, s := range secs {
		r.Correct = r.Correct && s.correct()
		r.Attempted += s.attempted
		r.Failed += s.failed
		for _, m := range s.Metrics {
			name := m.Name
			if len(secs) > 1 {
				name = s.Name + ":" + name
			}
			r.Metrics[name] = valuedUnit{m.Value, m.Unit}
		}
	}
	return r
}

func sectionDocs(secs []*section) []map[string]any {
	var docs []map[string]any
	for _, s := range secs {
		docs = append(docs, map[string]any{
			"name": s.Name, "samples": s.Samples, "attempted": s.attempted, "failed": s.failed,
			"failed_frac": s.frac(), "problems": s.problems, "metrics": s.Metrics, "raw": s.Raw, "series": s.Series,
		})
	}
	return docs
}

func printTable(w io.Writer, h host, secs []*section, selfs []selfTime) {
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, %s, %s, commit %s, seed %d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU, h.Commit, h.Seed)
	for _, s := range secs {
		fmt.Fprintf(w, "\n%s: %d samples, %s (failed_frac %.4g), took %.1f s\n", s.Name, s.Samples, &s.tally, s.frac(), s.Took.Seconds())
		for _, p := range s.problems {
			fmt.Fprintf(w, "  FAILED  %s\n", p)
		}
		for _, m := range s.Metrics {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
		for _, m := range s.Raw {
			fmt.Fprintf(w, "  %-28s %14.6g %s (not gated)\n", m.Name, m.Value, m.Unit)
		}
	}
	if len(selfs) > 0 {
		fmt.Fprintf(w, "\nself time per span (traced run):\n  %-34s %6s %12s %12s\n", "span", "count", "total ms", "self ms")
		for _, st := range selfs {
			fmt.Fprintf(w, "  %-34s %6d %12.3f %12.3f\n", st.Name, st.Count, ms(st.Total), ms(st.Self))
		}
	}
	fmt.Fprintln(w)
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// findRoot locates the repository: the working directory or its parent,
// whichever holds the go.mod of module reramsim.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module reramsim\n")) {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no reramsim module in %s or its parent: run from the repository root or benchmark/", wd)
}

func hostRecord(ctx context.Context, root string, seed int64) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown", Seed: seed}
	if out, err := exec.CommandContext(ctx, "go", "version").Output(); err == nil {
		h.GoVersion = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Only ask git inside a work tree of its own: a checkout without .git
	// must not report the commit of some enclosing repository.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}
