package retry

import (
	"context"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

func TestDelayDeterministic(t *testing.T) {
	for attempt := 0; attempt < 6; attempt++ {
		a := Delay("UDRVR+PR/mcf_m", attempt)
		b := Delay("UDRVR+PR/mcf_m", attempt)
		if a != b {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, a, b)
		}
	}
}

func TestDelayJitterWindow(t *testing.T) {
	for attempt := 0; attempt < 10; attempt++ {
		base := initialDelay << uint(attempt)
		if base <= 0 || base > maxDelay {
			base = maxDelay
		}
		d := Delay("some/key", attempt)
		if d < base/2 || d > base/2*3+1 {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, base/2, base/2*3)
		}
	}
}

func TestDelayCapped(t *testing.T) {
	// Far past the cap — and far past shift overflow of
	// initialDelay<<attempt.
	for _, attempt := range []int{5, 40, 63, 100} {
		if d := Delay("k", attempt); d > 3*time.Second {
			t.Errorf("attempt %d: delay %v exceeds 3/2 x maxDelay", attempt, d)
		}
	}
}

func TestDelayKeysSpread(t *testing.T) {
	// Different keys at the same attempt should not all collapse onto one
	// delay — that is the whole point of per-key jitter.
	seen := make(map[time.Duration]bool)
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		seen[Delay(k, 0)] = true
	}
	if len(seen) < 2 {
		t.Errorf("8 keys produced %d distinct delays; jitter is not per-key", len(seen))
	}
}

// TestDelayGolden pins the exact delays of the (key‖attempt)-hashed
// jitter. math/rand's generator is platform-independent, so these bytes
// hold everywhere; a change here means the jitter schedule of every
// deployed retrying client and job changed, which is worth noticing.
func TestDelayGolden(t *testing.T) {
	fixtures := []struct {
		key     string
		attempt int
		want    time.Duration
	}{
		{"UDRVR+PR/mcf_m", 0, 143453671},
		{"UDRVR+PR/mcf_m", 1, 242446262},
		{"UDRVR+PR/mcf_m", 2, 528420974},
		{"UDRVR+PR/mcf_m", 3, 785616828},
		{"client:10.0.0.7", 0, 94233975},
		{"client:10.0.0.7", 1, 190424945},
		{"client:10.0.0.7", 2, 364453165},
		{"client:10.0.0.7", 3, 526310107},
		{"cell/3", 0, 142097255},
		{"cell/3", 1, 186598398},
		{"cell/3", 2, 598398657},
		{"cell/3", 3, 712742303},
	}
	for _, f := range fixtures {
		if got := Delay(f.key, f.attempt); got != f.want {
			t.Errorf("Delay(%q, %d) = %d, want %d", f.key, f.attempt, got, f.want)
		}
	}
}

// TestJitterAttemptFoldedIntoHash is the regression test for the jitter
// stream collision: the old seeding (hash(key) + attempt) meant key A at
// attempt n+1 shared its whole jitter stream with any key whose fnv64a
// hash is one greater at attempt n. Constructing a real colliding key
// pair means inverting fnv64a, so the test pins the fix structurally:
// delays must no longer follow the additive-seed scheme at all.
func TestJitterAttemptFoldedIntoHash(t *testing.T) {
	h := fnv.New64a()
	h.Write([]byte("k"))
	base := int64(h.Sum64())
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		d := initialDelay << uint(attempt)
		if d <= 0 || d > maxDelay {
			d = maxDelay
		}
		old := d/2 + time.Duration(rand.New(rand.NewSource(base+int64(attempt))).Int63n(int64(d)+1))
		if Delay("k", attempt) == old {
			same++
		}
	}
	if same == 8 {
		t.Fatal("every delay matches the additive hash+attempt seeding; attempt is not folded into the hash input")
	}
}

func TestSleepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Sleep(ctx, time.Minute)
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("Sleep ignored cancelled context (slept %v)", e)
	}
}

func TestSleepNonPositive(t *testing.T) {
	Sleep(context.Background(), 0)
	Sleep(context.Background(), -time.Second)
}
