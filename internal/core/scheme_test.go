package core

import (
	"context"
	"math"
	"math/bits"
	"sync"
	"testing"

	"reramsim/internal/write"
	"reramsim/internal/xpoint"
)

// testConfig returns a calibrated default config, computed once: scheme
// tests at 512x512 are only fast because of the cost-table memoization,
// so they share one calibration.
var testConfig = sync.OnceValue(func() xpoint.Config {
	cfg := xpoint.DefaultConfig()
	p, err := xpoint.CalibrateLatency(cfg, xpoint.BestCaseLatency, xpoint.WorstCaseLatency)
	if err != nil {
		panic(err)
	}
	cfg.Params = p
	return cfg
})

func mustScheme(t *testing.T, f func(xpoint.Config) (*Scheme, error)) *Scheme {
	t.Helper()
	s, err := f(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBaselineAnchors: the calibrated baseline must reproduce the paper's
// §III-A numbers: a 2.3 us worst-case array RESET latency and a 5e6
// endurance floor at the no-drop corner.
func TestBaselineAnchors(t *testing.T) {
	s := mustScheme(t, Baseline)
	wc, err := s.WorstWriteCost()
	if err != nil {
		t.Fatal(err)
	}
	if wc.ResetLatency < 2.0e-6 || wc.ResetLatency > 2.7e-6 {
		t.Errorf("baseline worst RESET latency = %.0f ns, want ~2300 (anchor)", wc.ResetLatency*1e9)
	}
	floor, err := s.EnduranceFloor()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(floor-5e6)/5e6 > 0.05 {
		t.Errorf("baseline endurance floor = %g, want 5e6", floor)
	}
}

// TestSchemeLatencyOrdering reproduces the paper's qualitative ranking of
// worst-case array RESET latencies (Figs. 5c, 11, 13, 15):
// ora-64 < ora-128 < ora-256 < Base, and every proposed/prior technique
// far below Base.
func TestSchemeLatencyOrdering(t *testing.T) {
	worst := func(s *Scheme) float64 {
		t.Helper()
		wc, err := s.WorstWriteCost()
		if err != nil {
			t.Fatal(err)
		}
		return wc.ResetLatency
	}
	base := worst(mustScheme(t, Baseline))
	hard := worst(mustScheme(t, Hard))
	drvr := worst(mustScheme(t, DRVROnly))
	drvrpr := worst(mustScheme(t, DRVRPR))
	udrvrpr := worst(mustScheme(t, UDRVRPR))
	ora64 := worst(mustScheme(t, func(c xpoint.Config) (*Scheme, error) { return Oracle(c, 64) }))
	ora128 := worst(mustScheme(t, func(c xpoint.Config) (*Scheme, error) { return Oracle(c, 128) }))
	ora256 := worst(mustScheme(t, func(c xpoint.Config) (*Scheme, error) { return Oracle(c, 256) }))

	if !(ora64 < ora128 && ora128 < ora256 && ora256 < base) {
		t.Errorf("oracle ordering broken: %g < %g < %g < %g", ora64, ora128, ora256, base)
	}
	for name, lat := range map[string]float64{"Hard": hard, "DRVR": drvr, "DRVR+PR": drvrpr, "UDRVR+PR": udrvrpr} {
		if lat >= base/3 {
			t.Errorf("%s worst latency %.0f ns should be far below baseline %.0f ns", name, lat*1e9, base*1e9)
		}
	}
	// PR is the point: it must beat DRVR alone on the worst-case write.
	if drvrpr >= drvr {
		t.Errorf("DRVR+PR (%.0f ns) must beat DRVR alone (%.0f ns)", drvrpr*1e9, drvr*1e9)
	}
	// Hard sits between ora-128 and ora-256 (the paper's ora-100x256
	// equivalence).
	if hard < ora128 || hard > ora256 {
		t.Errorf("Hard (%.0f ns) should land between ora-128 (%.0f) and ora-256 (%.0f)",
			hard*1e9, ora128*1e9, ora256*1e9)
	}
}

// TestUDRVRRaisesEnduranceFloor: the §IV-C claim — UDRVR lifts the array
// endurance floor by roughly an order of magnitude while keeping the
// array RESET latency within a small factor of DRVR+PR.
func TestUDRVRRaisesEnduranceFloor(t *testing.T) {
	drvrpr := mustScheme(t, DRVRPR)
	udrvrpr := mustScheme(t, UDRVRPR)
	f1, err := drvrpr.EnduranceFloor()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := udrvrpr.EnduranceFloor()
	if err != nil {
		t.Fatal(err)
	}
	if f2 < 4*f1 {
		t.Errorf("UDRVR floor %g should be several times DRVR+PR floor %g", f2, f1)
	}
	w1, err := drvrpr.WorstWriteCost()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := udrvrpr.WorstWriteCost()
	if err != nil {
		t.Fatal(err)
	}
	if w2.ResetLatency > 2*w1.ResetLatency {
		t.Errorf("UDRVR+PR latency %.0f ns too far above DRVR+PR %.0f ns",
			w2.ResetLatency*1e9, w1.ResetLatency*1e9)
	}
}

// TestStaticOverdriveOverResets: Fig. 6a — a flat 3.7 V RESET collapses
// the endurance floor to O(1e2..1e4) writes.
func TestStaticOverdriveOverResets(t *testing.T) {
	s := mustScheme(t, func(c xpoint.Config) (*Scheme, error) { return StaticOverdrive(c, 3.7) })
	floor, err := s.EnduranceFloor()
	if err != nil {
		t.Fatal(err)
	}
	if floor > 50e3 {
		t.Errorf("3.7V static floor = %g, want catastrophic over-RESET (<5e4)", floor)
	}
}

// TestDRVRLevels: levels grow monotonically with the section (cells far
// from the write driver get more voltage) and stay within the pump range.
func TestDRVRLevels(t *testing.T) {
	s := mustScheme(t, DRVROnly)
	lv := s.Levels()
	prev := 0.0
	for sec := 0; sec < Sections; sec++ {
		v := lv.At(sec, 0)
		if v < prev {
			t.Errorf("DRVR level fell from %.3f to %.3f at section %d", prev, v, sec)
		}
		prev = v
	}
	if lv.At(0, 0) != testConfig().Params.Vrst {
		t.Errorf("bottom section level = %.3f, want nominal Vrst", lv.At(0, 0))
	}
	if lv.Max() > MaxLevel {
		t.Errorf("level %.3f exceeds pump maximum %v", lv.Max(), MaxLevel)
	}
}

// TestUDRVRLevelShape: §IV-C — within a section, levels grow toward the
// far multiplexer among the partition-RESET participants (odd muxes plus
// 7). Near muxes (<= 2) run 1-bit operations without partition help, so
// they may sit above their multi-bit neighbour; the overall near-to-far
// contrast must still hold.
func TestUDRVRLevelShape(t *testing.T) {
	s := mustScheme(t, UDRVRPR)
	lv := s.Levels()
	for sec := 0; sec < Sections; sec++ {
		for _, pair := range [][2]int{{3, 5}, {5, 7}} {
			if lv.At(sec, pair[0]) > lv.At(sec, pair[1])+1e-9 {
				t.Errorf("section %d: level(mux %d)=%.3f exceeds level(mux %d)=%.3f",
					sec, pair[0], lv.At(sec, pair[0]), pair[1], lv.At(sec, pair[1]))
			}
		}
		if lv.At(sec, 0) > lv.At(sec, 7)+1e-9 {
			t.Errorf("section %d: near mux level %.3f exceeds far mux level %.3f",
				sec, lv.At(sec, 0), lv.At(sec, 7))
		}
	}
}

func TestCostWriteAccounting(t *testing.T) {
	s := mustScheme(t, Baseline)
	var lw write.LineWrite
	lw.Arrays[0] = write.ArrayWrite{Reset: 0b10000001, Set: 0b01000000}
	lw.Arrays[63] = write.ArrayWrite{Reset: 0b00000001}
	c, err := s.CostWrite(context.Background(), 100, 10, lw)
	if err != nil {
		t.Fatal(err)
	}
	if c.Resets != 3 || c.Sets != 1 {
		t.Errorf("resets/sets = %d/%d, want 3/1", c.Resets, c.Sets)
	}
	if c.ResetLatency <= 0 || c.SetLatency <= 0 || c.Energy <= 0 {
		t.Error("non-positive cost components")
	}
	if c.Failed {
		t.Error("baseline write flagged as failed")
	}
	// An empty write costs nothing.
	empty, err := s.CostWrite(context.Background(), 100, 10, write.LineWrite{})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Latency() != 0 || empty.Energy != 0 {
		t.Error("empty write has nonzero cost")
	}
}

func TestCostWriteValidation(t *testing.T) {
	s := mustScheme(t, Baseline)
	if _, err := s.CostWrite(context.Background(), -1, 0, write.LineWrite{}); err == nil {
		t.Error("negative row accepted")
	}
	if _, err := s.CostWrite(context.Background(), 0, 64, write.LineWrite{}); err == nil {
		t.Error("offset beyond mux width accepted")
	}
}

// TestPRIncreasesWritesButCutsLatency: Fig. 14 vs Fig. 11 — PR writes
// more cells yet the far-bit RESET gets faster.
func TestPRIncreasesWritesButCutsLatency(t *testing.T) {
	base := mustScheme(t, Baseline)
	pr := mustScheme(t, DRVRPR)
	var lw write.LineWrite
	for i := range lw.Arrays {
		lw.Arrays[i] = write.ArrayWrite{Reset: 1 << 7}
	}
	cb, err := base.CostWrite(context.Background(), 511, 63, lw)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pr.CostWrite(context.Background(), 511, 63, lw)
	if err != nil {
		t.Fatal(err)
	}
	if cp.CellsWritten() <= cb.CellsWritten() {
		t.Error("PR should add paired RESET+SETs")
	}
	if cp.ResetLatency >= cb.ResetLatency/2 {
		t.Errorf("PR RESET latency %.0f ns should be well below baseline %.0f ns",
			cp.ResetLatency*1e9, cb.ResetLatency*1e9)
	}
}

// TestDBLPumpPressure: D-BL's dummy RESETs can exceed one pump round
// where PR stays within budget (the Fig. 14 zeusmp observation).
func TestDBLPumpPressure(t *testing.T) {
	hard := mustScheme(t, Hard)
	var lw write.LineWrite
	for i := range lw.Arrays {
		// One RESET per array: D-BL turns each into 8 concurrent RESETs.
		lw.Arrays[i] = write.ArrayWrite{Reset: 1 << 7}
	}
	c, err := hard.CostWrite(context.Background(), 100, 10, lw)
	if err != nil {
		t.Fatal(err)
	}
	if c.DummyResets != 64*7 {
		t.Errorf("dummy resets = %d, want 448", c.DummyResets)
	}
	// 64 data + 448 dummy = 512 RESETs: two rounds on the doubled pump?
	// No - D-BL doubles the pump precisely to keep this at one round.
	hardPump := hard.Pump()
	if got := hardPump.MaxConcurrentResets(testConfig().Params.Ion); got < 512 {
		t.Errorf("D-BL pump supports %d concurrent RESETs, want >= 512", got)
	}
	base := mustScheme(t, Baseline)
	basePump := base.Pump()
	if basePump.MaxConcurrentResets(testConfig().Params.Ion) >= 512 {
		t.Error("baseline pump should NOT support 512 concurrent RESETs")
	}
	_ = c
}

func TestRemapRowSCH(t *testing.T) {
	hs := mustScheme(t, HardSys)
	size := testConfig().Size
	for _, row := range []int{0, 100, 511} {
		got := hs.RemapRow(row)
		if got >= size/4 {
			t.Errorf("SCH left row %d at %d, outside the fast quarter", row, got)
		}
	}
	base := mustScheme(t, Baseline)
	if base.RemapRow(300) != 300 {
		t.Error("baseline must not remap rows")
	}
	if hs.WearLevelingCompatible() {
		t.Error("Hard+Sys must be flagged wear-leveling incompatible")
	}
	if !base.WearLevelingCompatible() {
		t.Error("baseline must be wear-leveling compatible")
	}
}

func TestCanonicalMask(t *testing.T) {
	cases := map[uint8]uint8{
		0:          0,
		1 << 7:     1 << 7,
		0b10101010: 0b10101010, // PR pattern is its own canonical form
		0b11000000: 0b10001000, // two far bits spread evenly
		0b00000001: 0b00000001,
	}
	for in, want := range cases {
		if got := canonicalMask(in); got != want {
			t.Errorf("canonicalMask(%08b) = %08b, want %08b", in, got, want)
		}
	}
	// Properties: same popcount, same top bit.
	for m := 1; m < 256; m++ {
		in := uint8(m)
		out := canonicalMask(in)
		if bits.OnesCount8(out) != bits.OnesCount8(in) {
			t.Fatalf("canonicalMask(%08b) changed popcount", in)
		}
		if bits.Len8(out) != bits.Len8(in) {
			t.Fatalf("canonicalMask(%08b) moved the top bit", in)
		}
	}
}

func TestNewSchemeRejects(t *testing.T) {
	cfg := testConfig()
	if _, err := NewScheme("x", Options{Array: cfg, UDRVR: true}); err == nil {
		t.Error("UDRVR without DRVR accepted")
	}
	if _, err := NewScheme("x", Options{Array: cfg, DRVR: true, StaticLevel: 3.5}); err == nil {
		t.Error("DRVR plus static level accepted")
	}
	if _, err := NewScheme("x", Options{Array: cfg, EffTarget: 2.5, DRVR: true}); err == nil {
		t.Error("EffTarget plus DRVR accepted")
	}
	bad := cfg
	bad.Size = 7
	if _, err := NewScheme("x", Options{Array: bad}); err == nil {
		t.Error("invalid array config accepted")
	}
}

func TestMemoGrowsAndServes(t *testing.T) {
	s := mustScheme(t, Baseline)
	var lw write.LineWrite
	lw.Arrays[5] = write.ArrayWrite{Reset: 0b00010000}
	if _, err := s.CostWrite(context.Background(), 40, 5, lw); err != nil {
		t.Fatal(err)
	}
	n := s.MemoSize()
	if n == 0 {
		t.Fatal("memo empty after a costed write")
	}
	// The same write again must not grow the table.
	if _, err := s.CostWrite(context.Background(), 40, 5, lw); err != nil {
		t.Fatal(err)
	}
	if s.MemoSize() != n {
		t.Error("memo grew on a repeated write")
	}
}
