package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSizes is every workload at its minimum: one sample, 100 accesses
// per core, one served session of 4 requests. tracedSmokeSizes shrinks the
// traced run further: it checks no orderings, so 30 accesses exercise
// every call it makes.
var (
	smokeSizes       = sizes{accesses: 100, warmAccesses: 100, setups: 1, sessionKeys: 4, cachedKeys: 4, solveReps: 1}
	tracedSmokeSizes = sizes{accesses: 30, warmAccesses: 30, cachedKeys: 4, solveReps: 1}
)

type specMetric struct{ Name, Unit string }

// readSpec loads the metric names BENCHMARK.json promises.
func readSpec(t *testing.T) (workloads []string, e2e, layers []specMetric) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

// lastResult runs the benchmark and decodes its last output line.
func lastResult(t *testing.T, o options) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(context.Background(), o, &stdout, &stderr)
	out := strings.TrimSpace(stdout.String())
	var r result
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &r); err != nil {
		t.Fatalf("exit %d, no result line: %v\nstdout:\n%s\nstderr:\n%s", code, err, out, stderr.String())
	}
	return code, r, out
}

// checkPrinted asserts that the run succeeded and printed exactly the
// metrics in want (name -> unit), in the JSON line and in the table.
func checkPrinted(t *testing.T, code int, r result, out string, want map[string]string) {
	t.Helper()
	if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("exit %d, result %+v\n%s", code, r, out)
	}
	for name, unit := range want {
		got, ok := r.Metrics[name]
		if !ok || got.Unit != unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", name, got, ok, unit)
		}
		bare := name[strings.IndexByte(name, ':')+1:]
		if !strings.Contains(out, "  "+bare+" ") {
			t.Errorf("metric %s missing from the table", name)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
	}
}

// TestSmokeEveryMetric runs every workload and the traced run at minimum
// size and checks that each metric BENCHMARK.json names is printed with
// its unit.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the program")
	}
	workloads, e2e, layers := readSpec(t)
	if strings.Join(workloads, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", workloads, workloadNames)
	}

	want := map[string]string{}
	for _, w := range workloads {
		for _, m := range e2e {
			want[w+":"+m.Name] = m.Unit
		}
	}
	code, r, out := lastResult(t, options{workloads: workloadNames, seed: 1, e2e: true, out: t.TempDir(), size: smokeSizes})
	checkPrinted(t, code, r, out, want)

	// One section, as a run of one workload prints it: bare names.
	want = map[string]string{}
	for _, m := range layers {
		want[m.Name] = m.Unit
	}
	dir := t.TempDir()
	code, r, out = lastResult(t, options{workloads: workloadNames[:1], seed: 1, traced: true, out: dir, size: tracedSmokeSizes})
	checkPrinted(t, code, r, out, want)
	for _, f := range []string{"trace.json", "result.json"} {
		blob, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil || !json.Valid(blob) {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestWrongCellFails corrupts one expected cell digest: every sweep then
// fails its output check and the benchmark exits non-zero.
func TestWrongCellFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the program")
	}
	code, r, out := lastResult(t, options{
		workloads: []string{"sweep_cold"}, seed: 1, e2e: true, out: t.TempDir(), size: smokeSizes,
		expect: func(m map[string][32]byte) {
			d := m["UDRVR+PR/mcf_m"]
			d[0] ^= 0xff
			m["UDRVR+PR/mcf_m"] = d
		},
	})
	if code == 0 || r.Correct || r.Failed != r.Attempted || r.Attempted == 0 {
		t.Errorf("exit %d, result %+v\n%s", code, r, out)
	}
	if !strings.Contains(out, "UDRVR+PR/mcf_m differs") {
		t.Errorf("failure not reported:\n%s", out)
	}
}
