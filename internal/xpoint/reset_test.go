package xpoint

import (
	"math"
	"testing"

	"reramsim/internal/circuit"
	"reramsim/internal/device"
)

// smallConfig returns a 64x64 test array (fast enough for the full 2-D
// reference solver).
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Size = 64
	return cfg
}

func oneBit(row, col int, v float64) ResetOp {
	return ResetOp{Row: row, Cols: []int{col}, Volts: []float64{v}}
}

func simulate(t *testing.T, cfg Config, op ResetOp) *ResetResult {
	t.Helper()
	arr, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := arr.SimulateReset(op)
	if err != nil {
		t.Fatalf("SimulateReset: %v", err)
	}
	return res
}

// fullSolverVeff computes the reference effective voltage with the 2-D
// nonlinear solver for a 1-bit RESET.
func fullSolverVeff(t *testing.T, cfg Config, row, col int, v float64) float64 {
	t.Helper()
	dev := device.Tabulate(cfg.Params.BackgroundCell(cfg.LRSFrac), cfg.Params.Vrst*1.7, 4096)
	sel := device.Tabulate(cfg.Params.LRSCell(), cfg.Params.Vrst*1.7, 4096)
	g := circuit.NewGrid(cfg.Size, cfg.Size, cfg.Rwire, dev)
	g.Dev = func(r, c int) device.Device {
		if r == row && c == col {
			return sel
		}
		return dev
	}
	circuit.ResetBias{
		SelectedWL: row,
		BLVolts:    map[int]float64{col: v},
		Vhalf:      cfg.Params.Vrst / 2,
		Rdrv:       cfg.Rdrv,
		Rdec:       cfg.Rdec,
		DSGB:       cfg.DSGB,
		DSWD:       cfg.DSWD,
	}.Apply(g)
	sol, err := circuit.Solve(g, circuit.SolverOptions{})
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	return sol.CellVoltage(row, col)
}

// TestFastModelMatchesFullSolver is the package's central validation: the
// 1-bit ladder model must agree with the 2-D nonlinear solver to a few
// millivolts at every sampled position, with and without DSGB/DSWD.
func TestFastModelMatchesFullSolver(t *testing.T) {
	variants := []struct {
		name string
		tol  float64
		mod  func(*Config)
	}{
		{"baseline", 5e-3, func(*Config) {}},
		// The DSGB fast model lumps the two decoder return paths into a
		// halved ground resistance, which is a few millivolts optimistic.
		{"dsgb", 10e-3, func(c *Config) { c.DSGB = true }},
		{"dswd", 5e-3, func(c *Config) { c.DSWD = true }},
		{"mixed-data", 5e-3, func(c *Config) { c.LRSFrac = 0.5 }},
		// The corners where IR drop is largest: thinner wires, a longer
		// line, and both.
		{"10nm", 5e-3, func(c *Config) { c.Rwire = device.WireResistance(device.Node10nm) }},
		{"128x128", 5e-3, func(c *Config) { c.Size = 128 }},
		{"128x128-10nm", 5e-3, func(c *Config) {
			c.Size = 128
			c.Rwire = device.WireResistance(device.Node10nm)
		}},
		// The other corners of the Fig. 18-20 sweeps: Fig. 19's thickest
		// wire, both ends of Fig. 20's ON/OFF ratio and Fig. 18's
		// smallest MAT.
		{"32nm", 5e-3, func(c *Config) { c.Rwire = device.WireResistance(device.Node32nm) }},
		{"kr500", 5e-3, func(c *Config) { c.Params.Kr = 500 }},
		{"kr2000", 5e-3, func(c *Config) { c.Params.Kr = 2000 }},
		{"256x256", 5e-3, func(c *Config) { c.Size = 256 }},
	}
	for _, vt := range variants {
		cfg := smallConfig()
		vt.mod(&cfg)
		arr, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", vt.name, err)
		}
		// The four corners, the centre and one interior cell.
		n := cfg.Size - 1
		positions := [][2]int{{0, 0}, {n, n}, {0, n}, {n, 0}, {n / 2, n / 2}, {cfg.Size * 10 / 64, cfg.Size * 50 / 64}}
		for _, pos := range positions {
			res, err := arr.SimulateReset(oneBit(pos[0], pos[1], 3.0))
			if err != nil {
				t.Fatalf("%s (%d,%d): %v", vt.name, pos[0], pos[1], err)
			}
			want := fullSolverVeff(t, cfg, pos[0], pos[1], 3.0)
			if diff := math.Abs(res.Veff[0] - want); diff > vt.tol {
				t.Errorf("%s cell(%d,%d): fast %.4f vs full %.4f (diff %.1f mV)",
					vt.name, pos[0], pos[1], res.Veff[0], want, diff*1e3)
			}
		}
	}
}

// TestPartitionLatencyUShape reproduces the Fig. 11a finding on the
// default 512x512 array: spreading concurrent RESETs over the word-line
// first shortens the op latency (partitioning) and then lengthens it
// (coalesced current), with the sweet spot near four bits.
func TestPartitionLatencyUShape(t *testing.T) {
	cfg := DefaultConfig()
	arr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lat := make([]float64, 9)
	for n := 1; n <= 8; n++ {
		cols := make([]int, 0, n)
		for k := n - 1; k >= 0; k-- {
			mux := 7 - k*8/n
			cols = append(cols, cfg.ColumnOfBit(mux, 63))
		}
		volts := make([]float64, n)
		for i := range volts {
			volts[i] = 3.0
		}
		res, err := arr.SimulateReset(ResetOp{Row: 511, Cols: cols, Volts: volts})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		lat[n] = res.Latency
	}
	best := 1
	for n := 2; n <= 8; n++ {
		if lat[n] < lat[best] {
			best = n
		}
	}
	if best < 3 || best > 5 {
		t.Errorf("latency sweet spot at N=%d, want 3..5 (lat: %v)", best, lat[1:])
	}
	if lat[8] <= lat[best] {
		t.Errorf("8-bit RESET (%.0f ns) should be slower than the sweet spot (%.0f ns)",
			lat[8]*1e9, lat[best]*1e9)
	}
	if lat[1] <= lat[best] {
		t.Errorf("1-bit RESET (%.0f ns) should be slower than the sweet spot (%.0f ns)",
			lat[1]*1e9, lat[best]*1e9)
	}
}

// TestHigherVoltageRaisesVeff: with a compliance-limited cell, raising
// the applied voltage passes almost all of the increase to the cell.
func TestHigherVoltageRaisesVeff(t *testing.T) {
	cfg := smallConfig()
	base := simulate(t, cfg, oneBit(63, 63, 3.0)).Veff[0]
	boost := simulate(t, cfg, oneBit(63, 63, 3.3)).Veff[0]
	gain := boost - base
	if gain < 0.2 || gain > 0.31 {
		t.Errorf("0.3V boost produced %.3f V effective gain, want ~0.3V", gain)
	}
}

func TestDSGBAndDSWDImproveWorstCase(t *testing.T) {
	cfg := smallConfig()
	base := simulate(t, cfg, oneBit(63, 63, 3.0)).Veff[0]
	cfg.DSGB = true
	dsgb := simulate(t, cfg, oneBit(63, 63, 3.0)).Veff[0]
	cfg.DSWD = true
	both := simulate(t, cfg, oneBit(63, 63, 3.0)).Veff[0]
	if !(dsgb > base && both > dsgb) {
		t.Errorf("expected monotone improvement: base %.4f, +DSGB %.4f, +DSWD %.4f", base, dsgb, both)
	}
}

// TestOracleEquivalence: ora-mxm taps on a large array should bring its
// worst case near the worst case of a real mxm array (the definition of
// the paper's oracle configurations).
func TestOracleEquivalence(t *testing.T) {
	small := smallConfig() // 64x64
	smallWorst := simulate(t, small, oneBit(63, 63, 3.0)).Veff[0]

	big := DefaultConfig() // 512x512
	big.OracleBL, big.OracleWL = 64, 64
	bigWorst := simulate(t, big, oneBit(511, 511, 3.0)).Veff[0]

	if diff := math.Abs(bigWorst - smallWorst); diff > 0.12 {
		t.Errorf("ora-64x64 worst case %.4f vs real 64x64 %.4f (diff %.0f mV)",
			bigWorst, smallWorst, diff*1e3)
	}
	// And the oracle must be far better than the raw 512x512 baseline.
	raw := DefaultConfig()
	rawWorst := simulate(t, raw, oneBit(511, 511, 3.0)).Veff[0]
	if bigWorst-rawWorst < 0.3 {
		t.Errorf("oracle should reclaim most of the drop: ora %.4f vs raw %.4f", bigWorst, rawWorst)
	}
}

func TestMixedDataLessDropThanAllLRS(t *testing.T) {
	all := smallConfig()
	half := smallConfig()
	half.LRSFrac = 0.5
	a := simulate(t, all, oneBit(63, 63, 3.0)).Veff[0]
	h := simulate(t, half, oneBit(63, 63, 3.0)).Veff[0]
	if h <= a {
		t.Errorf("half-LRS background (%.4f) must beat all-LRS (%.4f)", h, a)
	}
}

func TestResetOpValidation(t *testing.T) {
	cfg := smallConfig()
	arr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := []ResetOp{
		{Row: -1, Cols: []int{0}, Volts: []float64{3}},
		{Row: 99, Cols: []int{0}, Volts: []float64{3}},
		{Row: 0, Cols: nil, Volts: nil},
		{Row: 0, Cols: []int{1, 0}, Volts: []float64{3, 3}},
		{Row: 0, Cols: []int{1, 1}, Volts: []float64{3, 3}},
		{Row: 0, Cols: []int{1}, Volts: []float64{3, 3}},
		{Row: 0, Cols: []int{1}, Volts: []float64{0}},
		{Row: 0, Cols: []int{64}, Volts: []float64{3}},
	}
	for i, op := range bad {
		if _, err := arr.SimulateReset(op); err == nil {
			t.Errorf("case %d: invalid op accepted", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.Size = 1 },
		func(c *Config) { c.DataWidth = 0 },
		func(c *Config) { c.DataWidth = 7 }, // does not divide 512
		func(c *Config) { c.Rdrv = 0 },
		func(c *Config) { c.LRSFrac = 1.5 },
		func(c *Config) { c.OracleBL = 100 }, // does not divide 512
		func(c *Config) { c.TrunkCoeff = -1 },
	}
	for i, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestColumnOfBit(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.ColumnOfBit(0, 0); got != 0 {
		t.Errorf("ColumnOfBit(0,0) = %d", got)
	}
	if got := cfg.ColumnOfBit(7, 63); got != 511 {
		t.Errorf("ColumnOfBit(7,63) = %d, want 511", got)
	}
	if got := cfg.ColumnOfBit(3, 10); got != 3*64+10 {
		t.Errorf("ColumnOfBit(3,10) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range bit did not panic")
		}
	}()
	cfg.ColumnOfBit(8, 0)
}

func TestKrSweepWorstCase(t *testing.T) {
	// Fig. 20's premise at array level: higher selectivity, less drop.
	prev := -1.0
	for _, kr := range []float64{500, 1000, 2000} {
		cfg := smallConfig()
		cfg.Params.Kr = kr
		v := simulate(t, cfg, oneBit(63, 63, 3.0)).Veff[0]
		if v <= prev {
			t.Fatalf("worst-case Veff must grow with Kr: Kr=%g gives %.4f (prev %.4f)", kr, v, prev)
		}
		prev = v
	}
}

func TestWireResistanceSweepWorstCase(t *testing.T) {
	// Fig. 19's premise: finer nodes (higher Rwire), more drop.
	prev := 10.0
	for _, node := range []device.Node{device.Node32nm, device.Node20nm, device.Node10nm} {
		cfg := DefaultConfig()
		cfg.Size = 128
		cfg.Rwire = device.WireResistance(node)
		v := simulate(t, cfg, oneBit(127, 127, 3.0)).Veff[0]
		if v >= prev {
			t.Fatalf("worst-case Veff must fall as wires shrink: %v gives %.4f (prev %.4f)", node, v, prev)
		}
		prev = v
	}
}

func TestArraySizeSweepWorstCase(t *testing.T) {
	// Fig. 18's premise: bigger arrays, more drop.
	prev := 10.0
	for _, size := range []int{256, 512, 1024} {
		cfg := DefaultConfig()
		cfg.Size = size
		v := simulate(t, cfg, oneBit(size-1, size-1, 3.0)).Veff[0]
		if v >= prev {
			t.Fatalf("worst-case Veff must fall with array size: %d gives %.4f (prev %.4f)", size, v, prev)
		}
		prev = v
	}
}
