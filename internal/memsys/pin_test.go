package memsys

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"reramsim/internal/trace"
)

// TestSimulatePinnedDigests pins the Result JSON of three runs — clean,
// and under the mixed and margin fault profiles — to digests measured
// before the event loop and the cost memo were rewritten for speed.
// Any change to event order, queue order or pricing shows up here as a
// different digest. The digests cover float64 bits, and other
// architectures may fuse multiply-adds, so the test runs on amd64 only.
func TestSimulatePinnedDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; GOARCH=%s may round differently", runtime.GOARCH)
	}
	for _, tc := range []struct {
		scheme, bench, profile, want string
	}{
		{"udrvrpr", "mcf_m", "", "12d8ae2b81e94db00023c16b94f932f50370f8af3155685512e93e75f2870c0c"},
		{"base", "mcf_m", "mixed", "26c40f372de41bbc16fddfde65a143e7411872f4b75ee7f33782429d7fe7ca8c"},
		{"hardsys", "zeu_m", "margin", "31514b17573f606aa3e4e59869ce96c25b26fecf8a3634633e1bdb157defb2b2"},
	} {
		bench, err := trace.ByName(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.AccessesPerCore = 800
		cfg.Seed = 42
		cfg.FaultProfile = tc.profile
		res, err := Simulate(schemes()[tc.scheme], bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s/%s profile %q: Result digest %s, want %s", tc.scheme, tc.bench, tc.profile, got, tc.want)
		}
	}
}
