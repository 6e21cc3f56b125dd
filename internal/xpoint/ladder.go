package xpoint

import (
	"math"

	"reramsim/internal/device"
)

// ladder is a one-dimensional chain of n nodes joined by wire conductance
// gw. Every node may carry one nonlinear device load toward a fixed far
// potential and one linear source tap. It is the shared primitive behind
// the bit-line and word-line models.
//
// Loads are concrete *device.Tabulated (every device the array solvers
// attach is table-backed): the hot sweep reads the load's table directly
// instead of dispatching through the Device interface, which is worth
// ~15% of the solve on the default 512-node ladders.
type ladder struct {
	n  int
	gw float64

	loads []*device.Tabulated // nil entry = no load at that node
	loadU []float64           // far potential of the load
	srcG  []float64           // 0 entry = no source tap
	srcV  []float64

	v []float64 // node voltages (persist across solves as warm start)

	// Physical bounds: a passive resistive network obeys the maximum
	// principle, so every node voltage lies between the smallest and
	// largest source/far potential. Clamping each sweep to these bounds
	// keeps the secant iteration from running away.
	vmin, vmax float64

	cp, dp []float64 // Thomas-elimination scratch
}

func newLadder(n int, rwire float64) *ladder {
	return newLadderCap(n, n, rwire)
}

// newLadderCap allocates a ladder spanning n nodes over backing arrays of
// capacity c, so pooled ladders can be re-spanned per solve (resize)
// without reallocating.
func newLadderCap(n, c int, rwire float64) *ladder {
	if rwire <= 0 {
		rwire = 1e-4
	}
	l := &ladder{
		gw:    1 / rwire,
		vmin:  math.Inf(-1),
		vmax:  math.Inf(1),
		loads: make([]*device.Tabulated, c),
		loadU: make([]float64, c),
		srcG:  make([]float64, c),
		srcV:  make([]float64, c),
		v:     make([]float64, c),
		cp:    make([]float64, c),
		dp:    make([]float64, c),
	}
	l.resize(n)
	return l
}

// resize re-spans the ladder over the first n backing nodes. n must not
// exceed the allocated capacity. State beyond the new span is untouched;
// callers reconfigure (and init) the span before solving.
func (l *ladder) resize(n int) {
	l.n = n
	l.loads = l.loads[:n]
	l.loadU = l.loadU[:n]
	l.srcG = l.srcG[:n]
	l.srcV = l.srcV[:n]
	l.v = l.v[:n]
	l.cp = l.cp[:n]
	l.dp = l.dp[:n]
}

func (l *ladder) reset() {
	for i := 0; i < l.n; i++ {
		l.loads[i] = nil
		l.loadU[i] = 0
		l.srcG[i] = 0
		l.srcV[i] = 0
	}
	l.vmin, l.vmax = math.Inf(-1), math.Inf(1)
}

// setBounds declares the physical voltage window of the network.
func (l *ladder) setBounds(vmin, vmax float64) {
	l.vmin, l.vmax = vmin, vmax
}

// setSource attaches a voltage source v behind resistance r at node i.
func (l *ladder) setSource(i int, v, r float64) {
	if r <= 0 {
		r = 1e-3
	}
	l.srcG[i] = 1 / r
	l.srcV[i] = v
}

// setLoad attaches device dev between node i and fixed potential u.
func (l *ladder) setLoad(i int, dev *device.Tabulated, u float64) {
	l.loads[i] = dev
	l.loadU[i] = u
}

// init seeds every node voltage, typically with the dominant source value.
func (l *ladder) init(v float64) {
	for i := range l.v {
		l.v[i] = v
	}
}

// sweep performs one linearised tridiagonal solve and returns the largest
// node-voltage change. relax in (0,1] under-relaxes the update.
//
// The per-node row assembly is fused with the forward (elimination) pass
// of the Thomas algorithm, and the backward (substitution) pass with the
// relaxed, clamped update, so one sweep makes a single pass down and a
// single pass up the ladder with no intermediate coefficient arrays.
// Every floating-point operation matches the unfused assemble-then-solve
// formulation value for value, so results are bit-identical to it.
//
// It is the solver's hot loop, so it fetches its operands cheaply: the
// slices are re-sliced to n, which takes the bounds checks out of both
// passes, and a load's secant conductance is evaluated inline from its
// device table. The table is reloaded only where the load changes, at
// the selected cell in a half-selected background. The lookup repeats
// Tabulated.SecantConductance operation for operation; past the table's
// end it calls it. Each product that feeds a sum is an explicit float64
// conversion: the spec makes it round on its own, so no GOARCH fuses it
// into a multiply-add (make fma-check).
func (l *ladder) sweep(relax float64) float64 {
	n, gw := l.n, l.gw
	srcG, srcV := l.srcG[:n], l.srcV[:n]
	loads, loadU := l.loads[:n], l.loadU[:n]
	v, cp, dp := l.v[:n], l.cp[:n], l.dp[:n]
	vmin, vmax := l.vmin, l.vmax

	var dev *device.Tabulated // the load whose table is cached below
	var tab []float64
	var step, tmax, g0 float64
	var cprev, dprev float64
	for i := 0; i < n; i++ {
		diag := srcG[i]
		rhs := float64(srcG[i] * srcV[i])
		if d := loads[i]; d != nil {
			if d != dev {
				dev = d
				tab, step, tmax, g0 = d.Table()
			}
			u := loadU[i]
			x := v[i] - u
			var g float64
			if ax := math.Abs(x); x == 0 {
				g = g0
			} else if ax < tmax {
				pos := ax / step
				k := int(pos)
				frac := pos - float64(k)
				cur := tab[k] + float64((tab[k+1]-tab[k])*frac)
				if x < 0 {
					cur = -cur
				}
				g = cur / x
			} else {
				g = d.SecantConductance(x)
			}
			diag += g
			rhs += float64(g * u)
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
		m := diag - float64(ai*cprev)
		cprev = ci / m
		dprev = (rhs - float64(ai*dprev)) / m
		cp[i] = cprev
		dp[i] = dprev
	}
	res := 0.0
	xnext := 0.0
	for i := n - 1; i >= 0; i-- {
		x := dp[i]
		if i < n-1 {
			x -= float64(cp[i] * xnext)
		}
		xnext = x
		vi := v[i]
		nv := vi + float64(relax*(x-vi))
		if nv < vmin {
			nv = vmin
		} else if nv > vmax {
			nv = vmax
		}
		if dv := math.Abs(nv - vi); dv > res {
			res = dv
		}
		v[i] = nv
	}
	return res
}

// solve iterates sweeps until the residual falls below tol, damping the
// relaxation if the secant fixed point oscillates. It returns the final
// residual (callers treat exceeding tol as a soft warning: the warm-started
// outer iterations re-enter this ladder anyway) and the sweeps it ran.
func (l *ladder) solve(tol float64, maxIter int) (res float64, sweeps int) {
	relax := 1.0
	prev := math.Inf(1)
	res = math.Inf(1)
	for it := 0; it < maxIter; it++ {
		res = l.sweep(relax)
		if res < tol {
			return res, it + 1
		}
		// Damp when the residual stops shrinking decisively — a perfect
		// 2-cycle keeps it constant, which "res > prev" alone would miss.
		if res > 0.9*prev && relax > 0.03 {
			relax *= 0.7
		}
		prev = res
	}
	return res, maxIter
}

// loadCurrent returns the current flowing out of node i into its device
// load (zero when the node has no load).
func (l *ladder) loadCurrent(i int) float64 {
	dev := l.loads[i]
	if dev == nil {
		return 0
	}
	return dev.Current(l.v[i] - l.loadU[i])
}

// sourceCurrent returns the current the source tap at node i injects into
// the ladder (zero when there is no tap).
func (l *ladder) sourceCurrent(i int) float64 {
	if l.srcG[i] == 0 {
		return 0
	}
	return l.srcG[i] * (l.srcV[i] - l.v[i])
}
