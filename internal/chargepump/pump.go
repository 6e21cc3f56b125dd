// Package chargepump models the on-chip charge pump that boosts Vdd to
// the SET/RESET voltages (§II-C). The model follows the paper's use of
// Jiang et al.'s pump model [29]: a capacitor-and-switch ladder whose
// area is proportional to the number of concurrently written cells and
// whose stage count grows with the output voltage. Absolute numbers are
// the paper's validated 20 nm figures (Table III and §IV-D).
package chargepump

import (
	"fmt"
	"math"
)

// Config describes one chip's charge pump. Its methods take a pointer:
// a write's pricing calls them once per line, and a copy is 96 bytes.
type Config struct {
	Vdd  float64 // supply voltage (V)
	Vout float64 // boosted output voltage (V)

	Stages int // capacitor stages

	IResetMax float64 // deliverable current during the RESET phase (A)
	ISetMax   float64 // deliverable current during the SET phase (A)

	Efficiency float64 // power conversion efficiency

	ChargeLatency    float64 // time to charge before a phase (s)
	DischargeLatency float64 // time to discharge after a phase (s)
	ChargeEnergy     float64 // energy per charge (J)
	DischargeEnergy  float64 // energy per discharge (J)

	AreaMM2  float64 // pump area (mm^2)
	LeakageW float64 // pump leakage power (W)
}

// Baseline Table III pump: single stage, 3 V output, 23/25 mA, 33%
// efficiency, 28/21 ns charge/discharge, 17.8/13.1 nJ, 19.3 mm^2 (11% of
// a 4 GB 20 nm chip), 62.2 mW leakage.
func baseline() Config {
	return Config{
		Vdd:              1.8,
		Vout:             3.0,
		Stages:           1,
		IResetMax:        23e-3,
		ISetMax:          25e-3,
		Efficiency:       0.33,
		ChargeLatency:    28e-9,
		DischargeLatency: 21e-9,
		ChargeEnergy:     17.8e-9,
		DischargeEnergy:  13.1e-9,
		AreaMM2:          19.3,
		LeakageW:         62.2e-3,
	}
}

// ForVoltage returns the pump configured for the given maximum output
// voltage, applying the paper's measured deltas: the 3.66 V UDRVR pump
// adds a stage (+33% area, +30.2% leakage, +4.8% charging latency, +6.3%
// charging energy, §IV-D), and the 3.94 V UDRVR-3.94 pump adds a further
// +23% area, +15.5% leakage, +3.4% latency, +4.1% energy (§VI).
func ForVoltage(vout float64) (Config, error) {
	switch {
	case vout <= 0:
		return Config{}, fmt.Errorf("chargepump: non-positive output voltage %g", vout)
	case vout <= 3.0:
		c := baseline()
		c.Vout = vout
		return c, nil
	case vout <= 3.66:
		c := baseline()
		c.Vout = vout
		c.Stages = 2
		c.AreaMM2 *= 1.33
		c.LeakageW *= 1.302
		c.ChargeLatency *= 1.048
		c.ChargeEnergy *= 1.063
		return c, nil
	case vout <= 3.94:
		c, _ := ForVoltage(3.66)
		c.Vout = vout
		c.Stages = 3
		c.AreaMM2 *= 1.23
		c.LeakageW *= 1.155
		c.ChargeLatency *= 1.034
		c.ChargeEnergy *= 1.041
		return c, nil
	default:
		return Config{}, fmt.Errorf("chargepump: output voltage %g beyond modeled range (3.94 V)", vout)
	}
}

// Doubled returns a pump with twice the deliverable current, the variant
// D-BL requires in the worst case (§III-B): twice the area and a
// correspondingly larger leakage.
func (c *Config) Doubled() Config {
	d := *c
	d.IResetMax *= 2
	d.ISetMax *= 2
	d.AreaMM2 *= 2
	d.LeakageW *= 1.85 // slightly sub-linear: control logic is shared
	return d
}

// budgetTolerance absorbs the rounding in the paper's two-significant-
// figure current budgets (23 mA is quoted as supporting 256 x 90 uA
// RESETs, which is 23.04 mA).
const budgetTolerance = 1.005

// MaxConcurrentResets returns how many cells the pump can RESET at once,
// given the per-cell compliance current.
func (c *Config) MaxConcurrentResets(ion float64) int {
	if ion <= 0 {
		return 0
	}
	return int(c.IResetMax * budgetTolerance / ion)
}

// MaxConcurrentSets is the SET-phase analogue.
func (c *Config) MaxConcurrentSets(iset float64) int {
	if iset <= 0 {
		return 0
	}
	return int(c.ISetMax * budgetTolerance / iset)
}

// Rounds returns how many pump iterations a phase needs to drive n cells
// within the current budget perCell. Zero cells need zero rounds.
func (c *Config) Rounds(n int, perCell float64) int {
	if n <= 0 {
		return 0
	}
	cap := int(c.IResetMax * budgetTolerance / perCell)
	if cap <= 0 {
		return n // degenerate: one cell at a time would still exceed; serialize
	}
	return (n + cap - 1) / cap
}

// PhaseOverheadLatency returns the pump latency added to one write phase
// executed in the given number of rounds (each round recharges the pump).
func (c *Config) PhaseOverheadLatency(rounds int) float64 {
	if rounds <= 0 {
		return 0
	}
	return float64(rounds) * (c.ChargeLatency + c.DischargeLatency)
}

// PhaseOverheadEnergy returns the pump energy added to one write phase.
func (c *Config) PhaseOverheadEnergy(rounds int) float64 {
	if rounds <= 0 {
		return 0
	}
	return float64(rounds) * (c.ChargeEnergy + c.DischargeEnergy)
}

// DeliveredEnergy converts energy delivered at the output into energy
// drawn from Vdd through the pump's conversion efficiency.
func (c *Config) DeliveredEnergy(out float64) float64 {
	if c.Efficiency <= 0 {
		return math.Inf(1)
	}
	return out / c.Efficiency
}

// Validate reports the first invalid field.
func (c *Config) Validate() error {
	switch {
	case c.Vdd <= 0 || c.Vout <= 0 || c.Vout < c.Vdd:
		return fmt.Errorf("chargepump: invalid voltages Vdd=%g Vout=%g", c.Vdd, c.Vout)
	case c.Stages <= 0:
		return fmt.Errorf("chargepump: no stages")
	case c.IResetMax <= 0 || c.ISetMax <= 0:
		return fmt.Errorf("chargepump: non-positive current budget")
	case c.Efficiency <= 0 || c.Efficiency > 1:
		return fmt.Errorf("chargepump: efficiency %g outside (0,1]", c.Efficiency)
	case c.ChargeLatency < 0 || c.DischargeLatency < 0 || c.ChargeEnergy < 0 || c.DischargeEnergy < 0:
		return fmt.Errorf("chargepump: negative latency/energy")
	case c.AreaMM2 <= 0 || c.LeakageW < 0:
		return fmt.Errorf("chargepump: invalid area/leakage")
	}
	return nil
}
