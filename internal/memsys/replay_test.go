package memsys

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"reramsim/internal/cache"
	"reramsim/internal/trace"
)

// TestReplayMatchesGeneration: a recorded trace replayed under a scheme
// gives the Result JSON bytes of the same simulation drawing its stream
// live, for every Table IV workload (mixes included) on Base, Hard+Sys
// and UDRVR+PR: plain, with caches, under the margin fault profile
// (whose retries re-price the queued write's vectors), and with an L3
// shrunk until dirty lines are evicted, so that writebacks are priced
// from the replayed access's vectors. One trace per workload serves
// every case, as a suite's does. On amd64 each mode's live results
// also hash to the digest they had before traces were recorded (the
// float64 bits may round differently elsewhere), so a change that moves
// generation and replay alike fails too; the writebacks mode prices
// 5,287 writebacks.
func TestReplayMatchesGeneration(t *testing.T) {
	l3 := cache.L3Config
	t.Cleanup(func() { cache.L3Config = l3 })
	base := DefaultConfig()
	base.AccessesPerCore = 200
	base.Seed = 7
	modes := []struct {
		name   string
		mod    func(*Config)
		small  bool // shrink the L3 to 4 KB
		digest string
	}{
		{"plain", func(*Config) {}, false, "bda0c8193d4a418d8840405fe1477424f138c864c000882ec4270839c178ae1d"},
		{"caches", func(c *Config) { c.UseCaches = true }, false, "71af44dfef35d3e0bc19a5277b4ccfc6a208eadce4e7f1cfc4e31e1847641fa3"},
		{"margin", func(c *Config) { c.FaultProfile = "margin" }, false, "6a4f9aa3da6bc1029814f05e3ff20f7d3cfd75532435022626998e88eb9cdfb9"},
		{"writebacks", func(c *Config) { c.UseCaches = true }, true, "7f119c188a945b5d57d693bb144e685a81fb3b84ff631cb3b820bbe0ba22c9af"},
	}
	benches := trace.Benchmarks()
	traces := make([]*Trace, len(benches))
	for i, bench := range benches {
		var err error
		if traces[i], err = RecordTrace(context.Background(), bench, base); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			cache.L3Config = l3
			if mode.small {
				cache.L3Config.SizeBytes = 4 << 10
			}
			cfg := base
			mode.mod(&cfg)
			digest := sha256.New()
			var writes uint64
			for i, bench := range benches {
				for _, name := range []string{"base", "hardsys", "udrvrpr"} {
					s := schemes()[name]
					live, err := Simulate(s, bench, cfg)
					if err != nil {
						t.Fatal(err)
					}
					replayed, err := SimulateTrace(context.Background(), s, traces[i], cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := json.Marshal(live)
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.Marshal(replayed)
					if err != nil {
						t.Fatal(err)
					}
					digest.Write(want)
					if !bytes.Equal(got, want) {
						t.Errorf("%s/%s: replay differs from generation:\n  live:   %s\n  replay: %s",
							name, bench.Name, want, got)
					}
					writes += live.Writes
				}
			}
			if mode.small && writes == 0 {
				t.Error("the 4 KB L3 evicted no dirty line: no writeback was priced")
			}
			if got := hex.EncodeToString(digest.Sum(nil)); runtime.GOARCH == "amd64" && got != mode.digest {
				t.Errorf("live results hash to %s, want %s", got, mode.digest)
			}
		})
	}
}

// TestReplayRejectsOtherStreams: a trace replays only under the Cores,
// Seed and AccessesPerCore it was recorded with, and a stopped recording
// returns no trace.
func TestReplayRejectsOtherStreams(t *testing.T) {
	bench, err := trace.ByName("mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.AccessesPerCore = 100
	tr, err := RecordTrace(context.Background(), bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, mod := range map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed++ },
		"cores":    func(c *Config) { c.Cores = 4 },
		"accesses": func(c *Config) { c.AccessesPerCore++ },
	} {
		other := cfg
		mod(&other)
		if _, err := SimulateTrace(context.Background(), schemes()["base"], tr, other); err == nil {
			t.Errorf("a trace replayed under another %s", name)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tr, err := RecordTrace(ctx, bench, cfg); err == nil || tr != nil {
		t.Errorf("a recording under a cancelled context returned %v, %v; want no trace and an error", tr, err)
	}
}
