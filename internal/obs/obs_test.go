package obs

import "testing"

// withObs enables metrics for one test and restores the disabled default.
func withObs(t *testing.T) {
	t.Helper()
	SetEnabled(true)
	t.Cleanup(func() {
		SetEnabled(false)
		Default().ResetValues()
	})
}

func TestCounterGaugeBasics(t *testing.T) {
	withObs(t)
	c := C("test.counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if C("test.counter") != c {
		t.Fatal("registry did not return the same counter handle")
	}
	g := G("test.gauge")
	g.Set(2.5)
	g.SetMax(1.0) // lower: no effect
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	g.SetMax(7.25)
	if got := g.Value(); got != 7.25 {
		t.Fatalf("gauge after SetMax = %g, want 7.25", got)
	}
}

func TestDisabledMutationsAreDropped(t *testing.T) {
	SetEnabled(false)
	t.Cleanup(func() { Default().ResetValues() })
	c := C("test.disabled.counter")
	c.Inc()
	g := G("test.disabled.gauge")
	g.Set(3)
	g.SetMax(4)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("disabled mutations recorded: counter=%d gauge=%g", c.Value(), g.Value())
	}
}

func TestSnapshotDelta(t *testing.T) {
	withObs(t)
	c := C("test.delta.counter")
	g := G("test.delta.gauge")
	c.Add(10)
	g.Set(2)
	before := Default().Snapshot()
	c.Add(5)
	g.Set(3)
	d := Default().Snapshot().Delta(before)
	if d.Counters["test.delta.counter"] != 5 {
		t.Fatalf("counter delta = %d, want 5", d.Counters["test.delta.counter"])
	}
	// A gauge is a level, not a count: the delta keeps its current value.
	if d.Gauges["test.delta.gauge"] != 3 {
		t.Fatalf("gauge delta = %g, want the current 3", d.Gauges["test.delta.gauge"])
	}
}

// TestDisabledPathAllocationFree pins the tentpole contract: with
// observability off, every instrumentation primitive is allocation-free.
func TestDisabledPathAllocationFree(t *testing.T) {
	SetEnabled(false)
	c := C("test.alloc.counter")
	g := G("test.alloc.gauge")
	t.Cleanup(func() { Default().ResetValues() })

	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
		g.SetMax(2)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestResetValues(t *testing.T) {
	withObs(t)
	C("test.reset.counter").Add(3)
	G("test.reset.gauge").Set(1)
	Default().ResetValues()
	s := Default().Snapshot()
	if s.Counters["test.reset.counter"] != 0 || s.Gauges["test.reset.gauge"] != 0 {
		t.Fatalf("ResetValues left state behind: %+v", s)
	}
}
