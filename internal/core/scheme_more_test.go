package core

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"reramsim/internal/write"
	"reramsim/internal/xpoint"
)

// TestUDRVR394Scheme: the §VI comparison point — a taller pump chasing
// UDRVR+PR's latency on 1-bit RESETs.
func TestUDRVR394Scheme(t *testing.T) {
	s := mustScheme(t, UDRVR394)
	if got := s.Pump().Vout; got < 3.66 || got > 3.94 {
		t.Errorf("UDRVR-3.94 pump output = %.2f V, want in (3.66, 3.94]", got)
	}
	if s.Pump().Stages < 2 {
		t.Errorf("UDRVR-3.94 pump stages = %d, want >= 2", s.Pump().Stages)
	}
	// Its level table must exceed 3.66 V somewhere (that's the point of
	// the taller pump) and stay within 3.94 V.
	lv := s.Levels()
	if lv.Max() <= MaxLevel {
		t.Errorf("UDRVR-3.94 max level %.3f should exceed the 3.66 V pump", lv.Max())
	}
	if lv.Max() > 3.94 {
		t.Errorf("level %.3f beyond the 3.94 V pump", lv.Max())
	}
	// Near cells are driven down toward the same effective target.
	if lv.At(0, 0) >= lv.At(Sections-1, 7) {
		t.Error("near cells should receive lower levels than the far corner")
	}
}

// TestPRWorstEff: the UDRVR calibration target sits between the write
// threshold and the nominal voltage.
func TestPRWorstEff(t *testing.T) {
	target, err := new(Solver).PRWorstEff(testConfig(), MaxLevel)
	if err != nil {
		t.Fatal(err)
	}
	p := testConfig().Params
	if target <= p.VwriteMin || target >= p.Vrst {
		t.Errorf("PR worst effective Vrst = %.3f, want within (%.2f, %.2f)", target, p.VwriteMin, p.Vrst)
	}
}

// TestMapOpPRContexts: the map operation of a PR scheme must reset the
// queried cell together with its Algorithm 1 partners — and only a
// single bit for near-decoder columns.
func TestMapOpPRContexts(t *testing.T) {
	s := mustScheme(t, DRVRPR)
	op := s.MapOp()
	cfg := testConfig()
	muxW := cfg.MuxWidth()

	near := op(100, 2*muxW+5) // mux 2: Algorithm 1 early-out
	if len(near.Cols) != 1 {
		t.Errorf("near-mux map op resets %d cells, want 1", len(near.Cols))
	}
	far := op(100, 7*muxW+5) // mux 7: full partition
	if len(far.Cols) != 4 {
		t.Errorf("far-mux map op resets %d cells, want 4 (PR partners)", len(far.Cols))
	}
	for _, c := range far.Cols {
		if c%muxW != 5 {
			t.Errorf("partner column %d not at the queried offset", c)
		}
	}
}

// TestFailedWriteLatencyClamped: an op below the write threshold is
// flagged but priced at the finite threshold latency.
func TestFailedWriteLatencyClamped(t *testing.T) {
	cfg := testConfig()
	cfg.Rwire = 46.0 // 10 nm wires: the baseline fails at the far corner
	s, err := NewScheme("fail", Options{Array: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var lw write.LineWrite
	lw.Arrays[0] = write.ArrayWrite{Reset: 1 << 7}
	c, err := s.CostWrite(context.Background(), cfg.Size-1, cfg.MuxWidth()-1, lw)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Failed {
		t.Fatal("expected a write failure at 10 nm wires")
	}
	if math.IsInf(c.ResetLatency, 1) || c.ResetLatency <= 0 {
		t.Errorf("failed write latency = %g, want finite positive (clamped)", c.ResetLatency)
	}
	if c.ResetLatency > 1e-4 {
		t.Errorf("clamped latency %g implausibly long", c.ResetLatency)
	}
}

// TestDRVRSectionsOption: fewer sections leave a wider within-section
// spread, so the worst-case write slows down monotonically as sections
// shrink.
func TestDRVRSectionsOption(t *testing.T) {
	cfg := testConfig()
	prev := 0.0
	for _, sections := range []int{16, 8, 2} {
		s, err := NewScheme("drvr-n", Options{Array: cfg, DRVR: true, DRVRSections: sections})
		if err != nil {
			t.Fatal(err)
		}
		if s.Levels().Sections != sections {
			t.Fatalf("level table has %d sections, want %d", s.Levels().Sections, sections)
		}
		wc, err := s.WorstWriteCost()
		if err != nil {
			t.Fatal(err)
		}
		if wc.ResetLatency < prev {
			t.Errorf("worst latency should not improve with fewer sections: %d sections -> %.0f ns (prev %.0f)",
				sections, wc.ResetLatency*1e9, prev*1e9)
		}
		prev = wc.ResetLatency
	}
}

// TestSchemeConcurrentCosting: the lock-free cost table must hand every
// concurrent pricer exactly what a serial scheme computes. Eight
// goroutines price overlapping keys — first writes and retries escalated
// 1-3 steps, each goroutine in its own order — so cold misses race on
// one key and on creating one escalation page. Afterwards the table must
// hold the serial scheme's entries, byte for byte.
func TestSchemeConcurrentCosting(t *testing.T) {
	var lws [3]write.LineWrite
	lws[0].Arrays[3] = write.ArrayWrite{Reset: 0b10000001}
	for i := range lws[1].Arrays {
		lws[1].Arrays[i] = write.ArrayWrite{Reset: 1 << uint(i%8), Set: 2}
	}
	lws[2].Arrays[10] = write.ArrayWrite{Reset: 0b01101100}
	lws[2].Arrays[40] = write.ArrayWrite{Reset: 0b11111111}
	type job struct {
		row, offset, esc int
		lw               write.LineWrite
	}
	var jobs []job
	for _, row := range []int{0, 200, 511} {
		for _, offset := range []int{0, 40} {
			for esc := 0; esc <= 3; esc++ {
				for _, lw := range lws {
					jobs = append(jobs, job{row, offset, esc, lw})
				}
			}
		}
	}
	price := func(s *Scheme, j job) (LineCost, error) {
		if j.esc == 0 {
			return s.CostWrite(context.Background(), j.row, j.offset, j.lw)
		}
		return s.CostWriteRetry(context.Background(), j.row, j.offset, j.lw, j.esc)
	}

	serial := mustScheme(t, UDRVRPR)
	want := make([]LineCost, len(jobs))
	for i, j := range jobs {
		c, err := price(serial, j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}

	conc := mustScheme(t, UDRVRPR)
	const workers = 8
	got := make([][]LineCost, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		got[g] = make([]LineCost, len(jobs))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range jobs {
				// Each goroutine starts at its own rotation; odd ones walk
				// backwards, so every key is contended from both sides.
				i := (n + g*len(jobs)/workers) % len(jobs)
				if g%2 == 1 {
					i = len(jobs) - 1 - i
				}
				c, err := price(conc, jobs[i])
				if err != nil {
					errs[g] = err
					return
				}
				got[g][i] = c
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range jobs {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d, job %d (row %d, offset %d, esc %d): concurrent cost\n %+v\nserial cost\n %+v",
					g, i, jobs[i].row, jobs[i].offset, jobs[i].esc, got[g][i], want[i])
			}
		}
	}
	if g, w := conc.MemoSize(), serial.MemoSize(); g != w {
		t.Errorf("concurrent memo holds %d ops, serial %d", g, w)
	}
	if !bytes.Equal(conc.costs.encode(), serial.costs.encode()) {
		t.Error("concurrent memo dump differs from the serial scheme's")
	}
}

// TestOracleSchemeMapsFlat: the ora-64 oracle's latency map must be far
// flatter than the baseline's (taps cap the position dependence).
func TestOracleSchemeMapsFlat(t *testing.T) {
	ora := mustScheme(t, func(c xpoint.Config) (*Scheme, error) { return Oracle(c, 64) })
	base := mustScheme(t, Baseline)
	om, err := ora.LatencyMap(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := base.LatencyMap(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	oSpread := om.Max() / om.Min()
	bSpread := bm.Max() / bm.Min()
	if oSpread > bSpread/4 {
		t.Errorf("oracle latency spread %.1fx not much flatter than baseline %.1fx", oSpread, bSpread)
	}
}
