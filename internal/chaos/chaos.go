// Package chaos is a deterministic fault-injection harness: a seeded
// plan of network faults (latency, drops, connection resets, response
// truncation, bit-flip corruption of uploaded request bodies) and disk
// faults (ENOSPC episodes on fsync), applied by wrapping an HTTP
// transport and the atomicio write path. Every fault decision is a pure
// function of (seed, site, sequence number) — no clocks, no global RNG —
// so a failing chaos run replays with the same plan string.
//
// Nothing outside this package's tests installs a plan. Chaos is free
// when off: the guards are one atomic pointer load each, pinned at 0
// allocs/op by TestDisabledGuardsAllocFree.
package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"reramsim/internal/atomicio"
)

// Plan is one seeded fault schedule. Probabilities are in [0, 1]; zero
// disables that fault. The zero Plan is "no chaos".
type Plan struct {
	Seed int64 // fault-decision seed; runs with equal seeds and traffic shapes repeat

	Latency  time.Duration // delay added to a request when the latency roll hits
	LatencyP float64       // probability of the added latency per request

	DropP     float64 // request dropped before it reaches the peer
	ResetP    float64 // connection reset after the peer processed the request
	TruncateP float64 // response body truncated to half its bytes
	FlipP     float64 // one payload bit flipped in a segment upload (/complete requests)

	ENOSPC int // journal fsync failures to inject (episodes; 0 = none)
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.LatencyP > 0 || p.DropP > 0 || p.ResetP > 0 || p.TruncateP > 0 || p.FlipP > 0 || p.ENOSPC > 0
}

// String renders the plan in ParsePlan's syntax (stable field order).
func (p Plan) String() string {
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	if p.LatencyP > 0 {
		parts = append(parts, fmt.Sprintf("latency=%s", p.Latency), fmt.Sprintf("latency-p=%g", p.LatencyP))
	}
	if p.DropP > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.DropP))
	}
	if p.ResetP > 0 {
		parts = append(parts, fmt.Sprintf("reset=%g", p.ResetP))
	}
	if p.TruncateP > 0 {
		parts = append(parts, fmt.Sprintf("truncate=%g", p.TruncateP))
	}
	if p.FlipP > 0 {
		parts = append(parts, fmt.Sprintf("flip=%g", p.FlipP))
	}
	if p.ENOSPC > 0 {
		parts = append(parts, fmt.Sprintf("enospc=%d", p.ENOSPC))
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the plan syntax: a comma-joined list of key=value
// pairs, e.g.
//
//	seed=42,latency=20ms,latency-p=0.3,drop=0.1,reset=0.1,truncate=0.1,flip=0.05,enospc=1
//
// Keys: seed (int64), latency (duration) with latency-p (probability),
// drop, reset, truncate, flip (probabilities in [0,1]), enospc (episode
// count). An empty string parses to the zero (disabled) plan; unknown
// keys and out-of-range values are errors so a typo never silently runs
// a clean sweep where chaos was asked for.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	prob := func(k, v string) (float64, error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return 0, fmt.Errorf("chaos: %s=%q is not a probability in [0,1]", k, v)
		}
		return f, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Plan{}, fmt.Errorf("chaos: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
			if err != nil {
				err = fmt.Errorf("chaos: seed=%q is not an integer", v)
			}
		case "latency":
			p.Latency, err = time.ParseDuration(v)
			if err == nil && p.Latency < 0 {
				err = fmt.Errorf("chaos: latency=%q is negative", v)
			}
			if err == nil && p.LatencyP == 0 {
				p.LatencyP = 1 // latency without latency-p means "always"
			}
		case "latency-p":
			p.LatencyP, err = prob(k, v)
		case "drop":
			p.DropP, err = prob(k, v)
		case "reset":
			p.ResetP, err = prob(k, v)
		case "truncate":
			p.TruncateP, err = prob(k, v)
		case "flip":
			p.FlipP, err = prob(k, v)
		case "enospc":
			var n int
			n, err = strconv.Atoi(v)
			if err != nil || n < 0 {
				err = fmt.Errorf("chaos: enospc=%q is not a non-negative count", v)
			}
			p.ENOSPC = n
		default:
			keys := []string{"seed", "latency", "latency-p", "drop", "reset", "truncate", "flip", "enospc"}
			sort.Strings(keys)
			err = fmt.Errorf("chaos: unknown key %q (known: %s)", k, strings.Join(keys, ", "))
		}
		if err != nil {
			return Plan{}, err
		}
	}
	if p.LatencyP > 0 && p.Latency <= 0 {
		return Plan{}, fmt.Errorf("chaos: latency-p without latency")
	}
	return p, nil
}

// engine is one installed plan plus its mutable fault state.
type engine struct {
	plan       Plan
	seq        atomic.Uint64 // decision counter; makes every roll distinct
	enospcLeft atomic.Int64  // remaining fsync-failure episodes
}

// active is the installed engine; nil means chaos is off. The nil check
// is the entire disabled-path cost.
var active atomic.Pointer[engine]

// Install activates the plan process-wide: subsequent WrapTransport
// calls inject network faults and, when the plan has ENOSPC episodes,
// the atomicio stage hook makes that many journal fsyncs fail. A
// disabled plan (zero value) uninstalls. Install replaces any previous
// plan; it is not meant for concurrent use with in-flight traffic
// (CLIs install once at startup, tests serialise).
func Install(p Plan) {
	if !p.Enabled() {
		Uninstall()
		return
	}
	e := &engine{plan: p}
	e.enospcLeft.Store(int64(p.ENOSPC))
	active.Store(e)
	if p.ENOSPC > 0 {
		atomicio.SetHook(e.writeHook)
	} else {
		atomicio.SetHook(nil)
	}
}

// Uninstall deactivates chaos and removes the atomicio hook.
func Uninstall() {
	active.Store(nil)
	atomicio.SetHook(nil)
}

// Active reports whether a plan is installed. One atomic load.
func Active() bool { return active.Load() != nil }

// Installed returns the active plan (zero Plan when chaos is off).
func Installed() Plan {
	if e := active.Load(); e != nil {
		return e.plan
	}
	return Plan{}
}

// roll makes one deterministic fault decision: true with probability p,
// derived from fnv64a(seed ‖ site ‖ sequence). The per-engine sequence
// counter makes successive rolls at one site independent; the site
// string (an URL path plus fault name) decorrelates fault kinds.
func (e *engine) roll(site string, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		e.seq.Add(1)
		return true
	}
	n := e.seq.Add(1)
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(e.plan.Seed))
	h.Write(b[:])
	h.Write([]byte(site))
	binary.LittleEndian.PutUint64(b[:], n)
	h.Write(b[:])
	// Top 53 bits -> uniform float64 in [0, 1).
	return float64(h.Sum64()>>11)/(1<<53) < p
}

// writeHook is the atomicio stage hook: while ENOSPC episodes remain,
// each fsync of a journal/cache write fails with ENOSPC, exercising the
// disk-full path end to end (temp cleanup, typed error, retry).
func (e *engine) writeHook(dest, stage string) error {
	if stage != atomicio.StageSync {
		return nil
	}
	for {
		left := e.enospcLeft.Load()
		if left <= 0 {
			return nil
		}
		if e.enospcLeft.CompareAndSwap(left, left-1) {
			obsENOSPC.Inc()
			return syscall.ENOSPC
		}
	}
}
