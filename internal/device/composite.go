package device

import (
	"fmt"
	"math"
)

// Device is a two-terminal nonlinear element. All devices in this package
// are odd-symmetric (bipolar), so implementations only need to be exact
// for v >= 0 and mirror the sign.
type Device interface {
	// Current returns I(v), positive for positive v.
	Current(v float64) float64
	// Conductance returns dI/dV at v.
	Conductance(v float64) float64
	// SecantConductance returns I(v)/v (the chord conductance), with the
	// small-signal limit at v == 0.
	SecantConductance(v float64) float64
}

// Selector already satisfies Device.
var _ Device = (*Selector)(nil)

// CompositeCell models a ReRAM cell as an ohmic memory element of
// resistance R in series with a sharp sinh-law selector. Unlike the pure
// sinh composite, the ohmic element keeps the RESET current high when the
// applied voltage sags, which is what makes IR drop in large arrays as
// punishing as the paper reports: the selected cell keeps pulling tens of
// microamps through the line resistance instead of shutting itself off.
type CompositeCell struct {
	R   float64 // series memory-element resistance (ohm)
	Sel *Selector
}

var _ Device = (*CompositeCell)(nil)

// NewCompositeCell fits a cell + selector composite to three anchors:
// the composite draws ifs at full-select voltage vfs, ifs/kr at half
// select, and drops r*ifs of the full-select voltage across the ohmic
// element. It panics on parameters with no physical solution (e.g. a
// series resistance that would consume more than the full-select voltage).
func NewCompositeCell(ifs, vfs, kr, r float64) *CompositeCell {
	if ifs <= 0 || vfs <= 0 || kr <= 1 || r < 0 {
		panic(fmt.Sprintf("device: invalid composite parameters Ifs=%g Vfs=%g Kr=%g R=%g", ifs, vfs, kr, r))
	}
	vOn := vfs - ifs*r
	vHalf := vfs/2 - ifs*r/kr
	if vOn <= vHalf {
		panic(fmt.Sprintf("device: series resistance %g ohm leaves no selector headroom (vOn=%g vHalf=%g)", r, vOn, vHalf))
	}
	sel := newSelectorTwoPoint(ifs, vOn, ifs/kr, vHalf)
	return &CompositeCell{R: r, Sel: sel}
}

// newSelectorTwoPoint fits I(v) = Isat*sinh(gamma*v) through (v1, i1) and
// (v2, i2) with v1 > v2 and i1 > i2.
func newSelectorTwoPoint(i1, v1, i2, v2 float64) *Selector {
	ratio := i2 / i1 // < 1
	// Solve sinh(g*v2)/sinh(g*v1) = ratio; monotone decreasing in g from
	// v2/v1 toward 0.
	if v2/v1 <= ratio {
		panic(fmt.Sprintf("device: two-point selector fit infeasible (v2/v1=%g <= i2/i1=%g)", v2/v1, ratio))
	}
	f := func(g float64) float64 { return sinhRatio(g*v2, g*v1) }
	lo, hi := 1e-9, 1.0
	for f(hi) > ratio {
		hi *= 2
		if hi > 1e7 {
			panic("device: two-point selector fit diverged")
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) > ratio {
			lo = mid
		} else {
			hi = mid
		}
	}
	g := (lo + hi) / 2
	s := &Selector{Ifs: i1, Vfs: v1, Kr: i1 / i2, gamma: g}
	s.norm = i1 / math.Sinh(g*v1)
	return s
}

// sinhRatio computes sinh(a)/sinh(b) for 0 < a < b without overflowing:
// for large arguments sinh(x) ~ exp(x)/2, so the ratio ~ exp(a-b).
func sinhRatio(a, b float64) float64 {
	if b > 350 {
		return math.Exp(a - b)
	}
	return math.Sinh(a) / math.Sinh(b)
}

// selectorVoltage solves u + R*Isel(u) = v for the internal selector
// voltage u, for v >= 0, by bracketed Newton. The function is strictly
// increasing and convex in u, so the iteration is safe.
func (c *CompositeCell) selectorVoltage(v float64) float64 {
	if v == 0 {
		return 0
	}
	g := c.Sel.gamma
	// Bracket: u is in (0, min(v, uMax)] where uMax keeps sinh finite and
	// is beyond any physical operating point.
	hi := v
	if lim := 650 / g; hi > lim {
		hi = lim
	}
	lo := 0.0
	f := func(u float64) float64 { return u + c.R*c.Sel.Current(u) - v }
	if f(hi) < 0 {
		// Selector so far below threshold that even u = v (or the sinh
		// limit) doesn't reach: the resistor drop is negligible there.
		return hi
	}
	u := math.Min(hi, v/(1+c.R*c.Sel.Conductance(0)))
	for i := 0; i < 100; i++ {
		fu := f(u)
		if math.Abs(fu) < 1e-12*(1+v) {
			return u
		}
		if fu > 0 {
			hi = u
		} else {
			lo = u
		}
		df := 1 + c.R*c.Sel.Conductance(u)
		next := u - fu/df
		if next <= lo || next >= hi {
			next = (lo + hi) / 2
		}
		u = next
	}
	return u
}

// Current implements Device.
func (c *CompositeCell) Current(v float64) float64 {
	if v < 0 {
		return -c.Current(-v)
	}
	return c.Sel.Current(c.selectorVoltage(v))
}

// Conductance implements Device: with the series composition,
// dI/dV = gsel / (1 + R*gsel).
func (c *CompositeCell) Conductance(v float64) float64 {
	if v < 0 {
		v = -v
	}
	gs := c.Sel.Conductance(c.selectorVoltage(v))
	return gs / (1 + c.R*gs)
}

// SecantConductance implements Device.
func (c *CompositeCell) SecantConductance(v float64) float64 {
	if v == 0 {
		return c.Conductance(0)
	}
	return c.Current(v) / v
}

// Tabulated wraps a Device with a uniform lookup table over [0, VMax],
// linearly interpolated and mirrored for negative voltages. It trades a
// small, bounded interpolation error for a large constant-factor speedup
// in the circuit solvers' inner loops.
type Tabulated struct {
	VMax float64
	step float64
	i    []float64 // current samples
	g0   float64   // small-signal conductance at 0
}

var _ Device = (*Tabulated)(nil)

// Tabulate samples d at n+1 uniform points on [0, vmax]. n must be >= 8.
func Tabulate(d Device, vmax float64, n int) *Tabulated {
	if n < 8 || vmax <= 0 {
		panic(fmt.Sprintf("device: invalid table (vmax=%g, n=%d)", vmax, n))
	}
	t := &Tabulated{VMax: vmax, step: vmax / float64(n), i: make([]float64, n+1), g0: d.Conductance(0)}
	for k := 0; k <= n; k++ {
		t.i[k] = d.Current(float64(k) * t.step)
	}
	return t
}

// Table returns what Current and SecantConductance evaluate: the current
// samples, their uniform voltage step, the table's end VMax and the
// small-signal conductance g0. It lets a solver kernel inline the
// in-range lookup; the samples are shared and must not be modified.
func (t *Tabulated) Table() (samples []float64, step, vmax, g0 float64) {
	return t.i, t.step, t.VMax, t.g0
}

// Current implements Device. Voltages beyond VMax extrapolate linearly
// with the final segment's slope.
func (t *Tabulated) Current(v float64) float64 {
	neg := v < 0
	if neg {
		v = -v
	}
	n := len(t.i) - 1
	var cur float64
	if v >= t.VMax {
		slope := (t.i[n] - t.i[n-1]) / t.step
		cur = t.i[n] + slope*(v-t.VMax)
	} else {
		pos := v / t.step
		k := int(pos)
		frac := pos - float64(k)
		cur = t.i[k] + (t.i[k+1]-t.i[k])*frac
	}
	if neg {
		return -cur
	}
	return cur
}

// Conductance implements Device using the local table slope.
func (t *Tabulated) Conductance(v float64) float64 {
	if v < 0 {
		v = -v
	}
	n := len(t.i) - 1
	k := n - 1
	if v < t.VMax {
		k = int(v / t.step)
		if k >= n {
			k = n - 1
		}
	}
	return (t.i[k+1] - t.i[k]) / t.step
}

// SecantConductance implements Device.
func (t *Tabulated) SecantConductance(v float64) float64 {
	if v == 0 {
		return t.g0
	}
	return t.Current(v) / v
}
