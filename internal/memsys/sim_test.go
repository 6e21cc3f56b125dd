package memsys

import (
	"context"
	"errors"
	"sync"
	"testing"

	"reramsim/internal/core"
	"reramsim/internal/trace"
	"reramsim/internal/xpoint"
)

var calibrated = sync.OnceValue(func() xpoint.Config {
	cfg := xpoint.DefaultConfig()
	p, err := xpoint.CalibrateLatency(cfg, xpoint.BestCaseLatency, xpoint.WorstCaseLatency)
	if err != nil {
		panic(err)
	}
	cfg.Params = p
	return cfg
})

var schemes = sync.OnceValue(func() map[string]*core.Scheme {
	cfg := calibrated()
	out := map[string]*core.Scheme{}
	for name, f := range map[string]func(xpoint.Config) (*core.Scheme, error){
		"base":     core.Baseline,
		"hardsys":  core.HardSys,
		"udrvrpr":  core.UDRVRPR,
		"ora64":    func(c xpoint.Config) (*core.Scheme, error) { return core.Oracle(c, 64) },
		"drvronly": core.DRVROnly,
	} {
		s, err := f(cfg)
		if err != nil {
			panic(err)
		}
		out[name] = s
	}
	return out
})

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.AccessesPerCore = 1500
	return cfg
}

func run(t *testing.T, scheme, bench string, cfg Config) *Result {
	t.Helper()
	b, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(schemes()[scheme], b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateBasicInvariants(t *testing.T) {
	res := run(t, "base", "ast_m", quickCfg())
	if res.Instructions == 0 || res.Seconds <= 0 || res.IPC <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Reads+res.Writes != uint64(quickCfg().AccessesPerCore*quickCfg().Cores) {
		t.Errorf("accesses = %d, want %d", res.Reads+res.Writes, quickCfg().AccessesPerCore*quickCfg().Cores)
	}
	if res.IPC > float64(quickCfg().Cores)*quickCfg().CoreIPC {
		t.Errorf("IPC %.2f exceeds the machine width", res.IPC)
	}
	if res.WriteFailures != 0 {
		t.Errorf("baseline produced %d write failures", res.WriteFailures)
	}
	if res.Energy.Total() <= 0 {
		t.Error("no energy accounted")
	}
	if res.AvgReadLatency <= 0 || res.AvgWriteWait <= 0 {
		t.Error("missing latency accounting")
	}
}

func TestSimulateDeterminism(t *testing.T) {
	a := run(t, "udrvrpr", "mil_m", quickCfg())
	b := run(t, "udrvrpr", "mil_m", quickCfg())
	if a.IPC != b.IPC || a.Seconds != b.Seconds || a.Energy != b.Energy {
		t.Error("simulation is not deterministic for a fixed seed")
	}
	cfg := quickCfg()
	cfg.Seed = 99
	c := run(t, "udrvrpr", "mil_m", cfg)
	if c.IPC == a.IPC {
		t.Error("different seed produced identical IPC (suspicious)")
	}
}

// TestFasterWritesMoreIPC is the paper's central system-level mechanism:
// shorter RESET latency means less write-queue pressure and higher IPC.
func TestFasterWritesMoreIPC(t *testing.T) {
	cfg := quickCfg()
	base := run(t, "base", "mcf_m", cfg)
	fast := run(t, "udrvrpr", "mcf_m", cfg)
	oracle := run(t, "ora64", "mcf_m", cfg)
	if !(base.IPC < fast.IPC && fast.IPC < oracle.IPC) {
		t.Errorf("IPC ordering broken: base %.3f, UDRVR+PR %.3f, ora-64 %.3f",
			base.IPC, fast.IPC, oracle.IPC)
	}
	if fast.Speedup(base) < 1.5 {
		t.Errorf("UDRVR+PR speedup over baseline = %.2f, want substantial", fast.Speedup(base))
	}
}

// TestUDRVRPRBeatsHardSys: the headline Fig. 15 result on a
// write-intensive workload.
func TestUDRVRPRBeatsHardSys(t *testing.T) {
	cfg := quickCfg()
	hs := run(t, "hardsys", "mcf_m", cfg)
	up := run(t, "udrvrpr", "mcf_m", cfg)
	if up.IPC <= hs.IPC {
		t.Errorf("UDRVR+PR IPC %.3f should beat Hard+Sys %.3f", up.IPC, hs.IPC)
	}
	// And Fig. 16: it must do so with less energy.
	if up.Energy.Total() >= hs.Energy.Total() {
		t.Errorf("UDRVR+PR energy %.3g should be below Hard+Sys %.3g",
			up.Energy.Total(), hs.Energy.Total())
	}
}

// TestLightWritesSmallGains: workloads with light write traffic (tig_m)
// gain less from write acceleration (§VI).
func TestLightWritesSmallGains(t *testing.T) {
	cfg := quickCfg()
	heavyGain := run(t, "udrvrpr", "mcf_m", cfg).Speedup(run(t, "hardsys", "mcf_m", cfg))
	lightGain := run(t, "udrvrpr", "tig_m", cfg).Speedup(run(t, "hardsys", "tig_m", cfg))
	if lightGain >= heavyGain {
		t.Errorf("light-write gain %.3f should trail heavy-write gain %.3f", lightGain, heavyGain)
	}
}

func TestWriteBurstsHappen(t *testing.T) {
	res := run(t, "base", "mcf_m", quickCfg())
	if res.WriteBursts == 0 {
		t.Error("a write-intensive workload on the slow baseline must trigger write bursts")
	}
}

func TestCachedMode(t *testing.T) {
	cfg := quickCfg()
	cfg.UseCaches = true
	cfg.AccessesPerCore = 2000
	res := run(t, "udrvrpr", "ast_m", cfg)
	// With caches the generated stream is pre-filtered, so memory traffic
	// must be below the raw access count.
	if res.Reads+res.Writes >= uint64(cfg.AccessesPerCore*cfg.Cores) {
		t.Errorf("caches filtered nothing: %d memory accesses", res.Reads+res.Writes)
	}
	if res.IPC <= 0 {
		t.Error("cached mode produced no progress")
	}
}

func TestConfigValidation(t *testing.T) {
	b, _ := trace.ByName("ast_m")
	bad := DefaultConfig()
	bad.Cores = 0
	if _, err := Simulate(schemes()["base"], b, bad); err == nil {
		t.Error("invalid config accepted")
	}
	bad = DefaultConfig()
	bad.AccessesPerCore = 0
	if _, err := Simulate(schemes()["base"], b, bad); err == nil {
		t.Error("zero-length simulation accepted")
	}
}

// TestSimulateContextStops: a cancelled context stops the event loop
// before its first event; the run returns no result and an error that
// wraps the cancellation cause.
func TestSimulateContextStops(t *testing.T) {
	b, err := trace.ByName("mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("operator stop")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	res, err := SimulateContext(ctx, schemes()["base"], b, quickCfg())
	if res != nil || !errors.Is(err, cause) {
		t.Fatalf("cancelled run = (%v, %v), want no result and an error wrapping %q", res, err, cause)
	}
}

func TestMixWorkload(t *testing.T) {
	res := run(t, "udrvrpr", "mix_1", quickCfg())
	if res.IPC <= 0 {
		t.Error("mix workload failed to run")
	}
}
