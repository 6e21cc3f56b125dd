package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"reramsim/internal/xpoint"
)

// suite is shared across the package tests: the fast-path experiments run
// on a small access budget.
var suite = sync.OnceValue(func() *Suite {
	s, err := NewSuite(800)
	if err != nil {
		panic(err)
	}
	return s
})

func TestSchemeCachingAndUnknown(t *testing.T) {
	s := suite()
	a, err := s.Scheme("Base")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Scheme("Base")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("scheme not cached")
	}
	if _, err := s.Scheme("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestSimCaching(t *testing.T) {
	s := suite()
	r1, err := s.Sim("Base", "mil_m")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Sim("Base", "mil_m")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("simulation result not cached")
	}
	if _, err := s.Sim("Base", "nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestStaticExperimentsRender(t *testing.T) {
	s := suite()
	for _, id := range []string{"table1", "fig1e", "fig5d", "table3", "table4", "fig9", "fig14", "fig11a", "fig7b", "ext-read", "ext-eq1"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 50 || !strings.Contains(out, "\n") {
			t.Errorf("%s produced implausible output:\n%s", id, out)
		}
	}
}

func TestFig5bRenders(t *testing.T) {
	out, err := suite().Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Base", "UDRVR+PR", "years"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5b missing %q:\n%s", want, out)
		}
	}
	// Hard+Sys must be in the sub-year (days/hours) regime.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Hard+Sys") && strings.Contains(line, "years") {
			t.Errorf("Hard+Sys should fail within days:\n%s", line)
		}
	}
}

func TestMapsExperimentsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("map generation is minutes-scale")
	}
	s := suite()
	out, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "effective Vrst") || !strings.Contains(out, "endurance") {
		t.Errorf("Fig4 output incomplete:\n%.300s", out)
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig15"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
	if len(All()) != 25 {
		t.Errorf("experiment registry has %d entries, want 25", len(All()))
	}
}

func TestWorkloadsOrder(t *testing.T) {
	ws := Workloads()
	if len(ws) != 11 || ws[0] != "ast_m" || ws[len(ws)-1] != "mix_2" {
		t.Errorf("unexpected workload list: %v", ws)
	}
}

// TestFig15Subset runs the headline comparison on one workload and checks
// the paper's ordering without paying for the full sweep.
func TestFig15Subset(t *testing.T) {
	s := suite()
	base, err := s.Sim("ora-64x64", "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	hs, err := s.Sim("Hard+Sys", "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	up, err := s.Sim("UDRVR+PR", "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	if !(up.IPC > hs.IPC) {
		t.Errorf("UDRVR+PR (%.3f) must beat Hard+Sys (%.3f) on mcf", up.IPC, hs.IPC)
	}
	if up.IPC >= base.IPC {
		t.Errorf("nothing beats the ora-64 oracle: UDRVR+PR %.3f vs %.3f", up.IPC, base.IPC)
	}
}

// TestVariantCaching: a sweep variant's array config is the suite's
// config with the mod applied, and what is built on it is cached like
// the suite's own: asking for the same variant again builds no second
// scheme and runs no second simulation.
func TestVariantCaching(t *testing.T) {
	s := suite()
	mod := func(c *xpoint.Config) { c.Size = 256 }
	v1, err := s.sweepConfig(mod)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.sweepConfig(mod)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("one mod gave two variant configs:\n%+v\n%+v", v1, v2)
	}
	if v1.Size != 256 {
		t.Errorf("variant config size = %d", v1.Size)
	}
	sc1, err := s.scheme(context.Background(), v1, "Base")
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := s.scheme(context.Background(), v2, "Base")
	if err != nil {
		t.Fatal(err)
	}
	if sc1 != sc2 {
		t.Error("variant scheme not cached")
	}
	r1, err := s.sim(s.Context(), cell{v1, s.MemCfg, "Base", "mcf_m"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.sim(s.Context(), cell{v2, s.MemCfg, "Base", "mcf_m"})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("variant cell not cached")
	}
}

// TestNewWorkerSuiteRejectsSolver: the exact solver is the only one, so a
// worker suite refuses any solver name, "exact" included.
func TestNewWorkerSuiteRejectsSolver(t *testing.T) {
	s := suite()
	if _, err := NewWorkerSuite(s.Cfg, s.MemCfg, ""); err != nil {
		t.Fatalf("empty solver: %v", err)
	}
	if _, err := NewWorkerSuite(s.Cfg, s.MemCfg, "exact"); err == nil {
		t.Error(`solver "exact" accepted`)
	}
}
