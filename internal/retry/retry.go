// Package retry is the repository's single definition of the
// capped-exponential-backoff-with-deterministic-jitter policy. The jobs
// engine uses it to space transient-failure re-attempts; the reramd
// daemon uses the same math to compute Retry-After hints for shed
// clients, so retrying clients and retrying cells spread out the same
// way and the policy exists in exactly one place.
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
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Default policy constants (the jobs engine's historical values).
const (
	DefaultInitial = 100 * time.Millisecond
	DefaultMax     = 2 * time.Second
)

// Policy is a capped exponential backoff: attempt n (0-based) waits
// Initial<<n, capped at Max, then jittered to [d/2, 3d/2] by a hash of
// (key, attempt). The zero value selects the defaults.
type Policy struct {
	Initial time.Duration // first delay (default 100ms)
	Max     time.Duration // cap on the pre-jitter delay (default 2s)

	// AttemptTimeout, when positive, bounds each individual attempt made
	// through DoCtx: the attempt's context is cancelled after this long,
	// so one hung call (an HTTP post stalled on a dead TCP peer, say)
	// cannot eat the caller's whole deadline. Zero means attempts share
	// the caller's context unbounded. Do ignores it — its callback takes
	// no context, so there is nothing to cancel.
	AttemptTimeout time.Duration
}

// withDefaults normalises unset fields.
func (p Policy) withDefaults() Policy {
	if p.Initial <= 0 {
		p.Initial = DefaultInitial
	}
	if p.Max <= 0 {
		p.Max = DefaultMax
	}
	return p
}

// Delay returns the backoff before re-attempt attempt (0-based) of the
// work identified by key: Initial<<attempt capped at Max, then spread
// over [d/2, 3d/2] deterministically in (key, attempt).
func (p Policy) Delay(key string, attempt int) time.Duration {
	p = p.withDefaults()
	d := p.Initial << uint(attempt)
	if d <= 0 || d > p.Max { // <= 0 catches shift overflow
		d = p.Max
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

// Do runs f up to attempts times, sleeping the policy's jittered delay
// between failures. It returns nil on the first success, the last error
// once attempts are exhausted, and ctx's cause if the context ends
// mid-backoff (the pending error is wrapped alongside). The
// deterministic per-key jitter keeps a herd of clients retrying against
// a restarted server from re-synchronising.
func (p Policy) Do(ctx context.Context, key string, attempts int, f func() error) error {
	return p.DoCtx(ctx, key, attempts, func(context.Context) error { return f() })
}

// DoCtx is Do for callbacks that honour a context: each attempt receives
// a child of ctx, additionally bounded by Policy.AttemptTimeout when that
// is set. A timed-out attempt counts as a failure and backs off like any
// other; only the parent ctx ending aborts the whole loop.
func (p Policy) DoCtx(ctx context.Context, key string, attempts int, f func(context.Context) error) error {
	var last error
	for n := 0; n < attempts; n++ {
		if err := ctx.Err(); err != nil {
			return joinCtx(ctx, last)
		}
		if last = p.attempt(ctx, f); last == nil {
			return nil
		}
		if n < attempts-1 {
			Sleep(ctx, p.Delay(key, n))
		}
	}
	if err := ctx.Err(); err != nil {
		return joinCtx(ctx, last)
	}
	return last
}

// attempt runs one call to f under the per-attempt timeout, if any.
func (p Policy) attempt(ctx context.Context, f func(context.Context) error) error {
	if p.AttemptTimeout <= 0 {
		return f(ctx)
	}
	actx, cancel := context.WithTimeoutCause(ctx, p.AttemptTimeout,
		fmt.Errorf("retry: attempt exceeded %v", p.AttemptTimeout))
	defer cancel()
	return f(actx)
}

// joinCtx pairs a cancellation cause with the last attempt error.
func joinCtx(ctx context.Context, last error) error {
	cause := context.Cause(ctx)
	if cause == nil {
		cause = ctx.Err()
	}
	if last == nil {
		return cause
	}
	return fmt.Errorf("%w (last attempt: %w)", cause, last)
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
