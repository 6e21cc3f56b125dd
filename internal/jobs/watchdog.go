package jobs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// beatKeyType keys the per-cell heartbeat state in the cell context.
type beatKeyType struct{}

// beatState is one in-flight cell's progress clock.
type beatState struct {
	last atomic.Int64 // UnixNano of the most recent heartbeat
}

func newBeatState() *beatState {
	bs := &beatState{}
	bs.beat()
	return bs
}

func (b *beatState) beat() { b.last.Store(time.Now().UnixNano()) }

func (b *beatState) age(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, b.last.Load()))
}

// Beat records forward progress for the cell bound to ctx; it is a
// no-op outside an engine-run cell. Long-running cell bodies call it
// (directly or via HeartbeatFunc) so the stall watchdog can tell "slow
// but moving" from "hung".
func Beat(ctx context.Context) {
	if bs, ok := ctx.Value(beatKeyType{}).(*beatState); ok {
		bs.beat()
	}
}

// HeartbeatFunc returns the progress-beat bound to ctx, or nil outside
// an engine-run cell. Callers hand it to inner loops (the memsys event
// loop) that should not depend on this package's context convention.
func HeartbeatFunc(ctx context.Context) func() {
	bs, ok := ctx.Value(beatKeyType{}).(*beatState)
	if !ok {
		return nil
	}
	return bs.beat
}

// watchdog polls the in-flight cells and flags any whose last heartbeat
// is older than max(floor, factor x trailing median cell time). Flags
// are advisory — a hung solve is reported, never killed (Go offers no
// safe preemption), and the per-cell deadline is the hard bound.
type watchdog struct {
	opts    Options
	onStall func(key string)

	mu        sync.Mutex
	active    map[string]*beatState
	flagged   map[string]bool
	durations []time.Duration // trailing window of completed cell times

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// trailingWindow bounds the duration history used for the median.
const trailingWindow = 64

func newWatchdog(opts Options, onStall func(key string)) *watchdog {
	return &watchdog{
		opts:    opts,
		onStall: onStall,
		active:  make(map[string]*beatState),
		flagged: make(map[string]bool),
		stopCh:  make(chan struct{}),
	}
}

func (w *watchdog) register(key string, bs *beatState) {
	w.mu.Lock()
	w.active[key] = bs
	delete(w.flagged, key) // a retry gets a fresh chance
	w.mu.Unlock()
}

func (w *watchdog) unregister(key string, took time.Duration) {
	w.mu.Lock()
	delete(w.active, key)
	w.durations = append(w.durations, took)
	if len(w.durations) > trailingWindow {
		w.durations = w.durations[len(w.durations)-trailingWindow:]
	}
	w.mu.Unlock()
}

// threshold computes the current stall bound; callers hold w.mu.
func (w *watchdog) thresholdLocked() time.Duration {
	th := w.opts.watchdogFloor
	if n := len(w.durations); n > 0 {
		sorted := append([]time.Duration(nil), w.durations...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		med := sorted[n/2]
		if scaled := med * watchdogFactor; scaled > th {
			th = scaled
		}
	}
	return th
}

func (w *watchdog) start() {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(w.opts.watchdogPoll)
		defer t.Stop()
		for {
			select {
			case <-w.stopCh:
				return
			case now := <-t.C:
				w.scan(now)
			}
		}
	}()
}

func (w *watchdog) scan(now time.Time) {
	var stalls []string
	w.mu.Lock()
	th := w.thresholdLocked()
	for key, bs := range w.active {
		if !w.flagged[key] && bs.age(now) > th {
			w.flagged[key] = true
			stalls = append(stalls, key)
		}
	}
	w.mu.Unlock()
	sort.Strings(stalls)
	for _, key := range stalls {
		w.onStall(key)
	}
}

func (w *watchdog) stop() {
	close(w.stopCh)
	w.wg.Wait()
}
