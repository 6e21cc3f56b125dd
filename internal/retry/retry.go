// Package retry is the repository's single definition of the
// capped-exponential-backoff-with-deterministic-jitter policy. The jobs
// engine uses it to space the retries of a failed journal write; the
// reramd daemon uses the same math to compute the Retry-After hint of a
// 429, so retrying clients and retrying journal writes spread out
// the same way and the policy exists in exactly one place.
//
// The jitter is deterministic in (key, attempt): no global RNG, so
// concurrent callers never contend on a lock and a rerun of the same
// schedule reproduces the same delays — the property the jobs engine's
// byte-identical-resume tests rely on, and the property that keeps a
// herd of identical clients from re-synchronising (each client key lands
// on its own point of the jitter window).
package retry

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"time"
)

// The backoff schedule: attempt n (0-based) waits initialDelay<<n,
// capped at maxDelay, before jitter.
const (
	initialDelay = 100 * time.Millisecond
	maxDelay     = 2 * time.Second
)

// Delay returns the backoff before re-attempt attempt (0-based) of the
// work identified by key: initialDelay<<attempt capped at maxDelay, then
// spread over [d/2, 3d/2] deterministically in (key, attempt).
func Delay(key string, attempt int) time.Duration {
	d := initialDelay << uint(attempt)
	if d <= 0 || d > maxDelay { // <= 0 catches shift overflow
		d = maxDelay
	}
	return d/2 + time.Duration(jitterRNG(key, attempt).Int63n(int64(d)+1))
}

// jitterRNG seeds a private RNG from (key, attempt). The attempt is
// folded into the hash input, not added to the seed: seeding with
// hash(key)+attempt would give key A at attempt n+1 the identical jitter
// stream of any key whose hash is one greater at attempt n, silently
// re-synchronising exactly the callers the jitter exists to spread.
func jitterRNG(key string, attempt int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(key))
	var a [8]byte
	binary.LittleEndian.PutUint64(a[:], uint64(attempt))
	h.Write(a[:])
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Sleep blocks for d or until ctx is cancelled, whichever comes first.
// d <= 0 returns immediately.
func Sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
