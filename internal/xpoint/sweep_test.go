package xpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"reramsim/internal/device"
)

// refSweep is the ladder sweep as it was before the kernel inlined the
// table lookup and hoisted its operands: the fused assemble-and-eliminate
// pass down, the relaxed, clamped substitution pass up, with the load
// conductance taken from device.Tabulated.SecantConductance. It is kept
// verbatim as the oracle the production sweep must match bit for bit.
func refSweep(l *ladder, relax float64) float64 {
	n, gw := l.n, l.gw
	var cprev, dprev float64
	for i := 0; i < n; i++ {
		diag := l.srcG[i]
		rhs := l.srcG[i] * l.srcV[i]
		if dev := l.loads[i]; dev != nil {
			g := dev.SecantConductance(l.v[i] - l.loadU[i])
			diag += g
			rhs += g * l.loadU[i]
		}
		ai, ci := 0.0, 0.0
		if i > 0 {
			ai = -gw
			diag += gw
		}
		if i < n-1 {
			ci = -gw
			diag += gw
		}
		if diag == 0 {
			diag = 1e-30
		}
		m := diag - ai*cprev
		cprev = ci / m
		dprev = (rhs - ai*dprev) / m
		l.cp[i] = cprev
		l.dp[i] = dprev
	}
	res := 0.0
	xnext := 0.0
	for i := n - 1; i >= 0; i-- {
		x := l.dp[i]
		if i < n-1 {
			x -= l.cp[i] * xnext
		}
		xnext = x
		nv := l.v[i] + relax*(x-l.v[i])
		if nv < l.vmin {
			nv = l.vmin
		} else if nv > l.vmax {
			nv = l.vmax
		}
		if dv := math.Abs(nv - l.v[i]); dv > res {
			res = dv
		}
		l.v[i] = nv
	}
	return res
}

// sweepCase describes one randomized ladder of TestSweepMatchesReference.
type sweepCase struct {
	n       int
	loads   bool    // attach device loads (false: the read path's nil-load nodes only)
	clamp   bool    // tight bounds, so the clamps fire
	relax   float64 // under-relaxation of every sweep
	onU     bool    // one loaded node starts exactly at its far potential
	farOut  bool    // one loaded node starts at least VMax from its far potential
	srcBoth bool    // source taps at both ends, not only node 0
}

// randomLadder builds a ladder for c from rng, drawing its loads from
// devs.
func randomLadder(rng *rand.Rand, c sweepCase, devs []*device.Tabulated) *ladder {
	l := newLadder(c.n, 2.0+3*rng.Float64())
	vmax := devs[0].VMax
	for i := 0; i < c.n; i++ {
		dev := devs[rng.Intn(len(devs))]
		u := -0.5 + 3.5*rng.Float64()
		if c.loads && rng.Intn(8) != 0 {
			l.setLoad(i, dev, u)
		}
		l.v[i] = -0.5 + 3.5*rng.Float64()
	}
	l.setSource(0, 1+2*rng.Float64(), 100+900*rng.Float64())
	if c.srcBoth && c.n > 1 {
		l.setSource(c.n-1, 1+2*rng.Float64(), 100+900*rng.Float64())
	}
	if c.n > 2 && rng.Intn(2) == 0 {
		l.setSource(c.n/2, 0, 1e-2)
	}
	if c.clamp {
		l.setBounds(0.2, 2.2)
	}
	if c.loads {
		// Force the special nodes onto loads, whatever the draws.
		if c.onU {
			i := rng.Intn(c.n)
			l.setLoad(i, devs[i%len(devs)], l.v[i])
		}
		if c.farOut {
			i := rng.Intn(c.n)
			sign := float64(1 - 2*rng.Intn(2))
			l.setLoad(i, devs[(i+1)%len(devs)], l.v[i]-sign*1.25*vmax)
		}
	}
	return l
}

// cloneLadder returns an independent copy of l's inputs and state.
func cloneLadder(l *ladder) *ladder {
	c := newLadder(l.n, 1/l.gw)
	copy(c.loads, l.loads)
	copy(c.loadU, l.loadU)
	copy(c.srcG, l.srcG)
	copy(c.srcV, l.srcV)
	copy(c.v, l.v)
	c.vmin, c.vmax = l.vmin, l.vmax
	return c
}

// TestSweepMatchesReference: the production sweep returns the bits of the
// reference sweep, node for node and residual for residual, over five
// sweeps of seeded random ladders. The cases cover single-node and long
// ladders, nil loads only (the read path's layout), both tabulated
// devices an Array attaches, a node exactly at its load's far potential
// (the small-signal conductance), a node past the table's end (linear
// extrapolation), under-relaxation, active clamps and sources at both
// ends.
func TestSweepMatchesReference(t *testing.T) {
	arr := MustNew(DefaultConfig())
	devs := []*device.Tabulated{arr.cell, arr.half}
	var cases []sweepCase
	for _, n := range []int{1, 2, 3, 64, 512} {
		for _, relax := range []float64{1, 0.7, 0.3} {
			cases = append(cases,
				sweepCase{n: n, loads: true, relax: relax, onU: true, srcBoth: true},
				sweepCase{n: n, loads: true, relax: relax, farOut: true, clamp: true},
				sweepCase{n: n, relax: relax, srcBoth: true},
				sweepCase{n: n, loads: true, relax: relax, clamp: true, srcBoth: true, onU: true, farOut: true},
			)
		}
	}
	rng := rand.New(rand.NewSource(20))
	for ci, c := range cases {
		for rep := 0; rep < 4; rep++ {
			got := randomLadder(rng, c, devs)
			want := cloneLadder(got)
			for s := 0; s < 5; s++ {
				label := fmt.Sprintf("case %d %+v rep %d sweep %d", ci, c, rep, s)
				rg, rw := got.sweep(c.relax), refSweep(want, c.relax)
				if math.Float64bits(rg) != math.Float64bits(rw) {
					t.Fatalf("%s: residual %.17g, want %.17g", label, rg, rw)
				}
				for i := range want.v {
					if math.Float64bits(got.v[i]) != math.Float64bits(want.v[i]) {
						t.Fatalf("%s: v[%d] = %.17g, want %.17g", label, i, got.v[i], want.v[i])
					}
				}
			}
		}
	}
	// A lone node with no tap and no load has an empty row (diag 0).
	got := newLadder(1, 1)
	want := cloneLadder(got)
	if rg, rw := got.sweep(1), refSweep(want, 1); math.Float64bits(rg) != math.Float64bits(rw) ||
		math.Float64bits(got.v[0]) != math.Float64bits(want.v[0]) {
		t.Fatalf("empty row: residual %g v %g, want %g v %g", rg, got.v[0], rw, want.v[0])
	}
}

// TestResetBitsPinned pins one SHA-256 over the result bits (Veff, Icell,
// Itotal, Latency) of poolOps on every pool configuration and on the
// default array at 10 nm. The system digests of grid G never reach the
// oracle decomposition or the 10 nm knee, so this is the unit-level
// guard that the solver's arithmetic has not moved. Digests cover
// float64 bits, and other architectures may fuse multiply-adds outside
// the sweep, so the test runs on amd64 only.
func TestResetBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest is pinned on amd64; GOARCH=%s may round differently", runtime.GOARCH)
	}
	const want = "b27f6d7e1f980c6b2cdbb13703c5beb9fce03ff02d64f5a2372bfa3b7ad908e5"
	cfgs := poolConfigs()
	nm10 := DefaultConfig()
	nm10.Rwire = device.WireResistance(device.Node10nm)
	cfgs["10nm"] = nm10
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)

	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, name := range names {
		cfg := cfgs[name]
		arr := MustNew(cfg)
		h.Write([]byte(name))
		for _, op := range poolOps(cfg) {
			res, err := arr.SimulateReset(op)
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Veff {
				put(res.Veff[i])
				put(res.Icell[i])
			}
			put(res.Itotal)
			put(res.Latency)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("reset result digest %s, want %s", got, want)
	}
}

// sweepSink keeps the benchmarked sweep's result live.
var sweepSink float64

// BenchmarkLadderSweep times one sweep of a converged 512-node bit-line
// at the default config (the worst-case row, its selected cell toward a
// grounded word-line) and reports it per node. It fails if a sweep
// allocates.
func BenchmarkLadderSweep(b *testing.B) {
	a := MustNew(DefaultConfig())
	cfg := a.cfg
	va, row := cfg.Params.Vrst, cfg.Size-1
	l := newLadder(cfg.Size, cfg.Rwire)
	a.resetBL(l, va, row, va-cfg.Params.Vrst/2, va)
	l.setLoad(row, a.cell, 0)
	if res, _ := l.solve(innerTol/4, ladderIter); res >= innerTol/4 {
		b.Fatalf("bit-line did not converge (residual %g)", res)
	}
	if avg := testing.AllocsPerRun(10, func() { sweepSink = l.sweep(1) }); avg > 0 {
		b.Fatalf("sweep allocates %.1f times/op, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepSink = l.sweep(1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l.n), "ns/node")
}
