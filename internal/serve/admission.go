package serve

import (
	"context"
	"runtime"
	"sync"
	"time"

	"reramsim/internal/retry"
)

// admissionConfig bounds what the daemon accepts. The daemon's intake
// policy is fixed: every zero field selects the value documented on it,
// and only tests set fields, to make shedding reachable in a handful of
// requests.
type admissionConfig struct {
	// maxInflight bounds concurrently executing solves: 2 x GOMAXPROCS
	// — the underlying solver pool is GOMAXPROCS-wide, so more
	// in-flight work only adds queueing inside the process.
	maxInflight int
	// maxQueue bounds requests parked waiting for a slot; one past it is
	// shed with 503. 64.
	maxQueue int
	// queueWait bounds how long one request waits in the queue before it
	// is shed with 503. 5s.
	queueWait time.Duration
	// ratePerSec is each client's sustained request rate (token-bucket
	// refill). 50/s.
	ratePerSec float64
	// burst is each client's bucket depth — how many requests it can
	// fire back-to-back before the sustained rate applies. 100.
	burst float64
}

func (c admissionConfig) withDefaults() admissionConfig {
	if c.maxInflight <= 0 {
		c.maxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.maxQueue <= 0 {
		c.maxQueue = 64
	}
	if c.queueWait <= 0 {
		c.queueWait = 5 * time.Second
	}
	if c.ratePerSec <= 0 {
		c.ratePerSec = 50
	}
	if c.burst <= 0 {
		c.burst = 100
	}
	return c
}

// bucket is one client's token bucket. tokens refills at ratePerSec up
// to burst; each admitted request costs one token. sheds counts
// consecutive rejections, escalating the jittered Retry-After hint the
// same way the jobs engine escalates retry backoff.
type bucket struct {
	tokens float64
	last   time.Time
	sheds  int
}

// minBucketSweep is the bucket count below which allow never sweeps.
const minBucketSweep = 64

// admission is the daemon's intake: per-client token buckets in front
// of a bounded slot semaphore with a bounded wait queue.
type admission struct {
	cfg   admissionConfig
	slots chan struct{} // buffered maxInflight; holding an element = holding a slot

	mu      sync.Mutex
	buckets map[string]*bucket
	sweepAt int // bucket count at which a new client triggers dropFullLocked
	queued  int
}

func newAdmission(cfg admissionConfig) *admission {
	cfg = cfg.withDefaults()
	return &admission{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.maxInflight),
		buckets: make(map[string]*bucket),
		sweepAt: minBucketSweep,
	}
}

// allow charges one request to client's token bucket. When the bucket
// is empty it returns ok=false and a Retry-After hint: the exact time
// until the next token (at most 20 ms at 50/s) plus the shared
// capped-backoff jitter keyed by client, deterministic per (client,
// consecutive sheds). writeError rounds the hint up to whole seconds.
// The first three backoffs (100, 200 and 400 ms, jittered to at most
// 150, 300 and 600 ms) all round to 1 s, so every client's first three
// consecutive sheds read Retry-After: 1; hints spread across clients
// only from the fourth shed (1 or 2 s), as TestRetryAfterSchedule pins.
func (a *admission) allow(client string, now time.Time) (ok bool, retryAfter time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[client]
	if b == nil {
		if len(a.buckets) >= a.sweepAt {
			a.dropFullLocked(now)
		}
		b = &bucket{tokens: a.cfg.burst, last: now}
		a.buckets[client] = b
		obsClients.Set(float64(len(a.buckets)))
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * a.cfg.ratePerSec
		if b.tokens > a.cfg.burst {
			b.tokens = a.cfg.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		b.sheds = 0
		return true, 0
	}
	untilToken := time.Duration((1 - b.tokens) / a.cfg.ratePerSec * float64(time.Second))
	attempt := b.sheds
	if attempt > 6 { // cap the escalation; the bucket math already dominates
		attempt = 6
	}
	b.sheds++
	return false, untilToken + retry.Delay(client, attempt)
}

// dropFullLocked forgets every bucket that has refilled to burst. With
// burst >= 1 a full bucket admits its next request and clears its shed
// count, exactly as the fresh bucket allow creates in its place. Client
// IDs are chosen by clients, so without this a client that rotates IDs
// grows the map without bound. The next sweep waits until the map has
// doubled, which keeps the cost amortized O(1) per new client.
func (a *admission) dropFullLocked(now time.Time) {
	for id, b := range a.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*a.cfg.ratePerSec >= a.cfg.burst {
			delete(a.buckets, id)
		}
	}
	a.sweepAt = 2 * max(len(a.buckets), minBucketSweep)
}

// slot acquires one compute slot, parking in the bounded queue when all
// are held. It returns a release function, or errSaturated when the
// queue is full or queueWait elapses, or ctx's cause when the caller's
// context dies first.
func (a *admission) slot(ctx context.Context) (release func(), err error) {
	select {
	case a.slots <- struct{}{}:
		return a.releaseFn(), nil
	default:
	}
	a.mu.Lock()
	if a.queued >= a.cfg.maxQueue {
		a.mu.Unlock()
		return nil, errSaturated
	}
	a.queued++
	obsQueued.Set(float64(a.queued))
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.queued--
		obsQueued.Set(float64(a.queued))
		a.mu.Unlock()
	}()

	t := time.NewTimer(a.cfg.queueWait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return a.releaseFn(), nil
	case <-t.C:
		return nil, errSaturated
	case <-ctx.Done():
		if cause := context.Cause(ctx); cause != nil {
			return nil, cause
		}
		return nil, ctx.Err()
	}
}

// queuedNow reports the current wait-queue depth (tests only).
func (a *admission) queuedNow() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}

func (a *admission) releaseFn() func() {
	obsInflight.Set(float64(len(a.slots)))
	var once sync.Once
	return func() {
		once.Do(func() {
			<-a.slots
			obsInflight.Set(float64(len(a.slots)))
		})
	}
}

// retryAfterSaturated is the hint attached to every 503 (a full queue,
// a queue wait that ran out, a drain): half the queue wait, the same
// for every client. Rounded up to whole seconds it reads 3 under the
// fixed policy. Only the 429 hint is jittered per client (allow).
func (a *admission) retryAfterSaturated() time.Duration {
	return a.cfg.queueWait / 2
}
