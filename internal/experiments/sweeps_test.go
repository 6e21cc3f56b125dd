package experiments

import (
	"strings"
	"testing"

	"reramsim/internal/device"
	"reramsim/internal/xpoint"
)

// sweepGmeans runs the UDRVR+PR vs Hard+Sys comparison for a list of
// variants and returns the gmean speedups (mirrors Suite.sweep without
// the formatting).
func sweepGmeans(t *testing.T, s *Suite, mods map[string]func(*xpoint.Config)) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for label, mod := range mods {
		cfg, err := s.sweepConfig(mod)
		if err != nil {
			t.Fatal(err)
		}
		// One representative write-heavy workload keeps the test fast;
		// the full sweep runs in cmd/figures and the bench harness.
		ref, err := s.sim(s.Context(), cell{cfg, s.MemCfg, "Hard+Sys", "mcf_m"})
		if err != nil {
			t.Fatal(err)
		}
		up, err := s.sim(s.Context(), cell{cfg, s.MemCfg, "UDRVR+PR", "mcf_m"})
		if err != nil {
			t.Fatal(err)
		}
		out[label] = up.Speedup(ref)
	}
	return out
}

// TestFig18Direction: UDRVR+PR's advantage grows with array size.
func TestFig18Direction(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep variants are expensive")
	}
	s := suite()
	g := sweepGmeans(t, s, map[string]func(*xpoint.Config){
		"t-256":  func(c *xpoint.Config) { c.Size = 256 },
		"t-1024": func(c *xpoint.Config) { c.Size = 1024 },
	})
	if g["t-1024"] <= g["t-256"] {
		t.Errorf("gain should grow with array size: 256 -> %.3f, 1024 -> %.3f", g["t-256"], g["t-1024"])
	}
}

// TestFig19Direction: UDRVR+PR's advantage is smaller on the wider,
// lower-resistance 32 nm wires than at 20 nm. Nothing is asserted about
// 10 nm: the RESET solver's outer loop cycles there, so that row
// follows the parity of its iteration cap.
func TestFig19Direction(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep variants are expensive")
	}
	s := suite()
	g := sweepGmeans(t, s, map[string]func(*xpoint.Config){
		"t-32nm": func(c *xpoint.Config) { c.Rwire = device.WireResistance(device.Node32nm) },
		"t-20nm": func(c *xpoint.Config) { c.Rwire = device.WireResistance(device.Node20nm) },
	})
	if g["t-32nm"] >= g["t-20nm"] {
		t.Errorf("gain should be smaller at 32 nm than at 20 nm: 32nm -> %.3f, 20nm -> %.3f", g["t-32nm"], g["t-20nm"])
	}
}

// TestFig20Direction: UDRVR+PR's advantage shrinks as the selector gets
// more selective (less sneak to fight).
func TestFig20Direction(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep variants are expensive")
	}
	s := suite()
	g := sweepGmeans(t, s, map[string]func(*xpoint.Config){
		"t-kr500":  func(c *xpoint.Config) { c.Params.Kr = 500 },
		"t-kr2000": func(c *xpoint.Config) { c.Params.Kr = 2000 },
	})
	if g["t-kr500"] <= g["t-kr2000"] {
		t.Errorf("gain should shrink with Kr: 0.5K -> %.3f, 2K -> %.3f", g["t-kr500"], g["t-kr2000"])
	}
}

// TestExtensionsRenderContent: the beyond-paper experiments produce the
// figures of merit they promise.
func TestExtensionsRenderContent(t *testing.T) {
	s := suite()
	read, err := s.ExtReadMargin()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(read, "worst") {
		t.Errorf("read-margin output missing worst row:\n%s", read)
	}
	eq1, err := s.ExtEq1Kinetics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eq1, "exp(-") {
		t.Errorf("Eq.1 fit missing from output:\n%s", eq1)
	}
}

// TestPROptimalityHeadroom: Algorithm 1 must recover most of the
// partitioning headroom — its mean latency ratio to the optimal superset
// must beat the no-PR baseline's, and far-bit masks must be near-optimal.
func TestPROptimalityHeadroom(t *testing.T) {
	s := suite()
	arr, err := xpoint.New(s.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Far single-bit masks are PR's home turf: near-optimal there.
	prMean, err := prOptimalityStats(arr, s.Cfg, []uint8{1 << 7, 0b10000001})
	if err != nil {
		t.Fatal(err)
	}
	if prMean > 1.25 {
		t.Errorf("PR mean ratio to optimal on far masks = %.3f, want close to 1", prMean)
	}
	out, err := s.ExtPROptimality()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "masks where PR is optimal") {
		t.Errorf("missing optimality row:\n%s", out)
	}
}

// TestVariantKeepsDeviceConstants: sweeps must hold the calibrated Eq. 1
// constants fixed (the paper fits device constants once).
func TestVariantKeepsDeviceConstants(t *testing.T) {
	s := suite()
	cfg, err := s.sweepConfig(func(c *xpoint.Config) { c.Size = 256 })
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Params != s.Cfg.Params {
		t.Errorf("variant config params = %+v, want the suite's calibrated %+v", cfg.Params, s.Cfg.Params)
	}
}
