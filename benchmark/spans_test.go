package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15 * ms, End: 20 * ms},
		{ID: 5, Parent: 1, Name: "a", Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	got := make(map[string]selfTime)
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	for _, want := range []selfTime{
		// root: 100 minus the union [10,60] + [90,100] of its children.
		{Name: "root", Count: 1, Total: 100 * ms, Self: 40 * ms},
		{Name: "a", Count: 2, Total: 60 * ms, Self: 55 * ms},
		{Name: "b", Count: 1, Total: 30 * ms, Self: 30 * ms},
		{Name: "c", Count: 1, Total: 5 * ms, Self: 5 * ms},
	} {
		if got[want.Name] != want {
			t.Errorf("%s: got %+v, want %+v", want.Name, got[want.Name], want)
		}
	}
	order := selfTimes(spans)
	for i := 1; i < len(order); i++ {
		if order[i].Self > order[i-1].Self {
			t.Errorf("not sorted by self time: %+v", order)
		}
	}
}

func TestRecorder(t *testing.T) {
	rec := newRecorder("sweep_cold")
	boom := errors.New("boom")
	outer, err := rec.do(0, "outer", "", func(id int) error {
		if _, err := rec.do(id, "inner", "x", func(int) error { time.Sleep(time.Millisecond); return nil }); err != nil {
			return err
		}
		_, err := rec.do(id, "inner", "y", func(int) error { return boom })
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not passed through: %v", err)
	}
	spans := rec.snapshot()
	if len(spans) != 3 || spans[0].Parent != 0 || spans[1].Parent != 1 || spans[2].Parent != 1 {
		t.Fatalf("spans %+v", spans)
	}
	for _, s := range spans {
		if s.Trace != "sweep_cold" || s.End < s.Start || s.Start < spans[0].Start || s.End > spans[0].End {
			t.Errorf("span %+v outside its trace or parent", s)
		}
	}
	if outer != spans[0].End-spans[0].Start || outer < time.Millisecond {
		t.Errorf("outer duration %v, span %+v", outer, spans[0])
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string
		Ph   string
		Ts   float64
		Dur  float64
		Args map[string]any
	}
	if err := json.Unmarshal(blob, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[0].Ph != "X" || events[1].Args["parent"] != float64(1) || events[0].Dur < 1000 {
		t.Errorf("trace events %+v", events)
	}
}
