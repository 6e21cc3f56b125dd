package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"reramsim/internal/obs"
	"reramsim/internal/solvecache"
	"reramsim/internal/write"
	"reramsim/internal/xpoint"
)

// persistCfg is a small array so the calibrated test schemes build fast.
func persistCfg() xpoint.Config {
	cfg := xpoint.DefaultConfig()
	cfg.Size = 64
	return cfg
}

func persistOptions() Options {
	return Options{Array: persistCfg(), DRVR: true, UDRVR: true, PR: true}
}

// priceGrid prices a representative set of writes and returns the costs.
func priceGrid(t *testing.T, s *Scheme) []LineCost {
	t.Helper()
	cfg := s.Array().Config()
	var out []LineCost
	for _, mask := range []uint8{0x01, 0x81, 0x0f, 0xff} {
		var lw write.LineWrite
		for i := range lw.Arrays {
			lw.Arrays[i] = write.ArrayWrite{Reset: mask}
		}
		for _, row := range []int{0, cfg.Size / 2, cfg.Size - 1} {
			for _, off := range []int{0, cfg.MuxWidth() - 1} {
				c, err := s.CostWrite(row, off, lw)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// sameCosts compares two cost sets for exact (bit-level) equality.
func sameCosts(t *testing.T, label string, got, want []LineCost) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d costs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: cost %d differs:\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
}

func sameLevels(t *testing.T, label string, got, want *LevelTable) {
	t.Helper()
	if got.Sections != want.Sections || got.Muxes != want.Muxes {
		t.Fatalf("%s: dims %dx%d, want %dx%d", label, got.Sections, got.Muxes, want.Sections, want.Muxes)
	}
	for s := range want.V {
		for m := range want.V[s] {
			if math.Float64bits(got.V[s][m]) != math.Float64bits(want.V[s][m]) {
				t.Errorf("%s: level [%d][%d] = %v, want %v", label, s, m, got.V[s][m], want.V[s][m])
			}
		}
	}
}

func TestLevelsEncodeDecode(t *testing.T) {
	want := FlatLevels(4, 8, 3.0)
	want.V[1][2] = 3.6600000001 // not representable exactly: bit fidelity matters
	want.V[3][7] = math.Nextafter(3.94, 0)
	got, ok := decodeLevels(encodeLevels(want), 4, 8)
	if !ok {
		t.Fatal("decodeLevels rejected its own encoding")
	}
	sameLevels(t, "round-trip", got, want)

	if _, ok := decodeLevels(encodeLevels(want)[:10], 4, 8); ok {
		t.Error("decodeLevels accepted a truncated payload")
	}
	if _, ok := decodeLevels(encodeLevels(want), 8, 4); ok {
		t.Error("decodeLevels accepted mismatched dimensions")
	}
	if _, ok := decodeLevels(nil, 4, 8); ok {
		t.Error("decodeLevels accepted an empty payload")
	}
}

func TestOptionsDigest(t *testing.T) {
	a := persistOptions()
	b := persistOptions()
	if optionsDigest(a) != optionsDigest(b) {
		t.Error("identical options digest differently")
	}
	b.PR = false
	if optionsDigest(a) == optionsDigest(b) {
		t.Error("PR toggle did not change the digest")
	}
	c := persistOptions()
	c.Array.Rwire *= 1.0000001
	if optionsDigest(a) == optionsDigest(c) {
		t.Error("array config change did not change the digest")
	}
}

// TestSchemeCacheByteIdentity is the end-to-end contract: costs priced
// with the cache off, cold, warm, and over a corrupted directory are all
// bit-identical, a warm directory preloads the memo before any pricing,
// and a warm re-pricing run never misses the memo.
func TestSchemeCacheByteIdentity(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	opt := persistOptions()

	// Reference: cache off.
	SetSolveCache(nil)
	ref, err := NewScheme("ref", opt)
	if err != nil {
		t.Fatal(err)
	}
	refCosts := priceGrid(t, ref)

	dir := t.TempDir()
	sc, err := solvecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	SetSolveCache(sc)
	defer SetSolveCache(nil)

	// Cold: empty directory, live solves; the level table is written at
	// construction and the memo when the pricing batch is flushed.
	cold, err := NewScheme("cold", opt)
	if err != nil {
		t.Fatal(err)
	}
	sameLevels(t, "cold levels", cold.Levels(), ref.Levels())
	sameCosts(t, "cold", priceGrid(t, cold), refCosts)
	cold.FlushMemo()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 2 { // levels + memo
		t.Fatalf("cold run left %d cache files, want >= 2", len(ents))
	}

	// Warm: a fresh scheme starts with the memo preloaded and re-pricing
	// the same grid never misses.
	warm, err := NewScheme("warm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.MemoSize() == 0 {
		t.Fatal("warm scheme has an empty memo before any pricing")
	}
	sameLevels(t, "warm levels", warm.Levels(), ref.Levels())
	before := obs.Default().Snapshot()
	warmCosts := priceGrid(t, warm)
	delta := obs.Default().Snapshot().Delta(before)
	sameCosts(t, "warm", warmCosts, refCosts)
	if misses := delta.Counters["core.memo.misses"]; misses != 0 {
		t.Errorf("warm pricing missed the memo %d times, want 0", misses)
	}
	if hits := delta.Counters["core.memo.hits"]; hits == 0 {
		t.Error("warm pricing recorded no memo hits")
	}

	// Corrupt every cache file: schemes must silently fall back to live
	// solves and still produce the reference bits.
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	burnt, err := NewScheme("burnt", opt)
	if err != nil {
		t.Fatal(err)
	}
	if burnt.MemoSize() != 0 {
		t.Error("corrupt memo file still preloaded entries")
	}
	sameLevels(t, "corrupt levels", burnt.Levels(), ref.Levels())
	sameCosts(t, "corrupt", priceGrid(t, burnt), refCosts)
}

// TestSchemeCacheEscalation: escalated retry entries persist too. The
// warm scheme must preload them and price the retry without a memo miss
// (a scheme that merely re-solved would also return the right cost).
func TestSchemeCacheEscalation(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	opt := persistOptions()
	SetSolveCache(nil)
	ref, err := NewScheme("ref", opt)
	if err != nil {
		t.Fatal(err)
	}
	var lw write.LineWrite
	lw.Arrays[0] = write.ArrayWrite{Reset: 0x80}
	want, err := ref.CostWriteRetry(ref.Array().Config().Size-1, 0, lw, 2)
	if err != nil {
		t.Fatal(err)
	}

	sc, err := solvecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetSolveCache(sc)
	defer SetSolveCache(nil)
	cold, err := NewScheme("cold", opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.CostWriteRetry(cold.Array().Config().Size-1, 0, lw, 2); err != nil {
		t.Fatal(err)
	}
	cold.FlushMemo()
	warm, err := NewScheme("warm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.MemoSize() == 0 {
		t.Fatal("warm scheme has an empty memo before any pricing")
	}
	before := obs.Default().Snapshot()
	got, err := warm.CostWriteRetry(warm.Array().Config().Size-1, 0, lw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if misses := obs.Default().Snapshot().Delta(before).Counters["core.memo.misses"]; misses != 0 {
		t.Errorf("warm retry missed the memo %d times, want 0", misses)
	}
	if got != want {
		t.Errorf("escalated cost from warm cache differs:\n got  %+v\n want %+v", got, want)
	}
}
