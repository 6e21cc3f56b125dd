package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"reramsim/internal/experiments"
	"reramsim/internal/memsys"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 20)
	for i, j := range rand.New(rand.NewSource(1)).Perm(20) {
		xs[i] = float64(j + 1) // 1..20, shuffled
	}
	for _, tc := range []struct{ p, want float64 }{
		{1, 1}, {5, 1}, {5.1, 2}, {50, 10}, {75, 15}, {95, 19}, {99, 20}, {100, 20},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g of 1..20 = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %g", got)
	}
	if got := median([]float64{3, 1}); got != 1 {
		t.Errorf("median of {3, 1} = %g, want the lower middle 1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if xs[0] != float64(rand.New(rand.NewSource(1)).Perm(20)[0]+1) {
		t.Error("percentile reordered its input")
	}
}

// above is the rule for which percentile a run may report: the guide asks
// for at least ten samples beyond it.
func TestAbove(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{40, 75, 10}, {12, 50, 6}, {352, 95, 17}, {20, 50, 10}, {1, 50, 0}, {0, 50, 0}, {88, 95, 4},
	} {
		if got := above(tc.n, tc.p); got != tc.want {
			t.Errorf("above(%d, p%g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

// TestBracket checks the host normalization: a step is scaled by the
// median of the probe groups on both sides, and consecutive steps share
// the group between them.
func TestBracket(t *testing.T) {
	const msec = time.Millisecond
	tm := timing{raw: 200 * msec, probes: []time.Duration{100 * msec, 40 * msec, 25 * msec, 60 * msec, 90 * msec, 100 * msec}}
	if tm.probe() != 60*msec || tm.norm() != 200*msec*50/60 {
		t.Errorf("probe %v, norm %v; want 60ms, %v", tm.probe(), tm.norm(), 200*msec*50/60)
	}
	br := &bracket{threads: 1}
	var steps []timing
	for i := 0; i < 2; i++ {
		st, err := br.time(func() (time.Duration, error) { return msec, nil })
		if err != nil || st.raw != msec || len(st.probes) != 2*probeGroup {
			t.Fatalf("step %d: %+v, %v", i, st, err)
		}
		steps = append(steps, st)
	}
	if !slices.Equal(steps[0].probes[probeGroup:], steps[1].probes[:probeGroup]) {
		t.Errorf("consecutive steps do not share a probe group: %v, %v", steps[0].probes, steps[1].probes)
	}
}

func TestTally(t *testing.T) {
	var empty tally
	if empty.correct() || empty.frac() != 0 {
		t.Errorf("empty tally: correct %v, frac %g", empty.correct(), empty.frac())
	}
	var tl tally
	for i := 0; i < 3; i++ {
		tl.record(nil)
	}
	if !tl.correct() {
		t.Error("clean tally not correct")
	}
	for i := 0; i < 2*maxProblems; i++ {
		tl.record(fmt.Errorf("problem %d", i))
	}
	if tl.attempted != 3+2*maxProblems || tl.failed != 2*maxProblems || tl.correct() {
		t.Errorf("tally %s, correct %v", &tl, tl.correct())
	}
	if want := float64(2*maxProblems) / float64(3+2*maxProblems); tl.frac() != want {
		t.Errorf("frac %g, want %g", tl.frac(), want)
	}
	if len(tl.problems) != maxProblems || tl.problems[0] != "problem 0" {
		t.Errorf("problems kept: %q", tl.problems)
	}
}

func TestSummarize(t *testing.T) {
	a := &section{Name: "sweep_cold"}
	a.add("latency_ms.p50", 900, "ms")
	a.tally.record(nil)
	b := &section{Name: "traced"}
	b.add("core.cold_solves", 1579, "count")
	b.tally.record(nil)
	b.tally.record(fmt.Errorf("boom"))

	one := summarize([]*section{a})
	if !one.Correct || one.Attempted != 1 || one.Metrics["latency_ms.p50"] != (valuedUnit{900, "ms"}) {
		t.Errorf("one section: %+v", one)
	}
	both := summarize([]*section{a, b})
	if both.Correct || both.Attempted != 3 || both.Failed != 1 ||
		both.Metrics["sweep_cold:latency_ms.p50"].Value != 900 || both.Metrics["traced:core.cold_solves"].Value != 1579 {
		t.Errorf("two sections: %+v", both)
	}
}

// sweepDoc renders results the way reramsim -json prints a sweep, and the
// digests the in-process reference would produce for them.
func sweepDoc(t *testing.T, results map[string]*memsys.Result) ([]byte, map[string][32]byte) {
	t.Helper()
	type cell struct {
		Scheme   string          `json:"scheme"`
		Workload string          `json:"workload"`
		Result   json.RawMessage `json:"result"`
	}
	var cells []cell
	expect := make(map[string][32]byte)
	for _, c := range gridCells() {
		blob, err := json.Marshal(results[cellKey(c)])
		if err != nil {
			t.Fatal(err)
		}
		expect[cellKey(c)] = sha256.Sum256(blob)
		cells = append(cells, cell{c.Scheme, c.Workload, blob})
	}
	out, err := json.MarshalIndent(map[string]any{"cells": cells}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out, expect
}

// gridResults fakes a grid that satisfies the paper's orderings.
func gridResults() map[string]*memsys.Result {
	rs := make(map[string]*memsys.Result)
	for i, s := range gridSchemes {
		for _, w := range gridWorkloads {
			rs[s+"/"+w] = &memsys.Result{
				Scheme: s, Workload: w, IPC: 1 + float64(i),
				Reliability: &memsys.Reliability{Profile: "margin", WriteRetries: uint64(100 - 10*i)},
			}
		}
	}
	return rs
}

// TestCheckSweep covers the output checks that turn a sample into a
// failure.
func TestCheckSweep(t *testing.T) {
	out, expect := sweepDoc(t, gridResults())
	if err := checkSweep(out, expect, true); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	if err := checkSweep(nil, expect, false); err == nil {
		t.Error("no output accepted")
	}

	bad := make(map[string][32]byte)
	for k, v := range expect {
		bad[k] = v
	}
	d := bad["UDRVR+PR/mcf_m"]
	d[0] ^= 0xff
	bad["UDRVR+PR/mcf_m"] = d
	if err := checkSweep(out, bad, false); err == nil || !strings.Contains(err.Error(), "UDRVR+PR/mcf_m") {
		t.Errorf("corrupted digest: %v", err)
	}

	for _, tc := range []struct {
		name   string
		edit   func(map[string]*memsys.Result)
		faults bool
		want   string
	}{
		{"ipc order", func(rs map[string]*memsys.Result) { rs["Hard+Sys/zeu_m"].IPC = 9 }, false, "IPC not ordered"},
		{"retries", func(rs map[string]*memsys.Result) { rs["Base/ast_m"].Reliability.WriteRetries = 1 }, true, "write retries"},
		{"no reliability", func(rs map[string]*memsys.Result) { rs["Base/mil_m"].Reliability = nil }, true, "reliability"},
	} {
		rs := gridResults()
		tc.edit(rs)
		out, expect := sweepDoc(t, rs)
		if err := checkSweep(out, expect, tc.faults); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	rs := gridResults()
	delete(rs, "Base/ast_m")
	short, _ := sweepDoc(t, rs)
	if err := checkSweep(short, expect, false); err == nil {
		t.Error("sweep missing a cell accepted")
	}
}

// TestServedOrders checks that a session asks for every non-oracle cell
// once and that the seed alone fixes the orders.
func TestServedOrders(t *testing.T) {
	next, again := servedOrders(7, 1000), servedOrders(7, 1000)
	first := next()
	want := 0
	for _, s := range experiments.SchemeNames() {
		if !strings.HasPrefix(s, "ora-") {
			want += len(experiments.Workloads())
		}
	}
	seen := make(map[experiments.SimPair]bool)
	for _, k := range first {
		if seen[k] || strings.HasPrefix(k.Scheme, "ora-") {
			t.Fatalf("%v repeated or an oracle", k)
		}
		seen[k] = true
	}
	if len(seen) != want {
		t.Errorf("%d keys, want %d", len(seen), want)
	}
	if !slices.Equal(first, again()) || slices.Equal(first, next()) {
		t.Error("orders are not fixed by the seed alone, or repeat across sessions")
	}
	if short := servedOrders(7, 4)(); !slices.Equal(short, first[:4]) {
		t.Errorf("first 4 keys %v, want %v", short, first[:4])
	}
}

func TestCheckServed(t *testing.T) {
	rs := gridResults()
	_, expect := sweepDoc(t, rs)
	bodies := make(map[string][]byte)
	for key, r := range rs {
		blob, _ := json.Marshal(r)
		body, _ := json.Marshal(map[string]any{"scheme": r.Scheme, "workload": r.Workload, "result": json.RawMessage(blob)})
		bodies[key] = body
	}
	bodies["DRVR/tig_m"] = []byte(`{"scheme":"DRVR","workload":"tig_m","result":{"IPC":1}}`)
	if bad := checkServed(bodies, expect); len(bad) != 0 {
		t.Fatalf("valid bodies rejected: %v", bad)
	}
	bodies["DRVR/tig_m"] = []byte(`{"scheme":"DRVR","workload":"mix_1","result":{}}`)
	rs["Base/mcf_m"].IPC = 100
	blob, _ := json.Marshal(rs["Base/mcf_m"])
	bodies["Base/mcf_m"], _ = json.Marshal(map[string]any{"scheme": "Base", "workload": "mcf_m", "result": json.RawMessage(blob)})
	bad := checkServed(bodies, expect)
	if bad["DRVR/tig_m"] == nil {
		t.Error("body for the wrong cell accepted")
	}
	if bad["Base/mcf_m"] == nil {
		t.Error("grid cell unlike the reference accepted")
	}
	if err := bad["Hard+Sys/ast_m"]; err != nil {
		t.Errorf("untouched workload flagged: %v", err)
	}
}
