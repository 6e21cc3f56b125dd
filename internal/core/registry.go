package core

import (
	"fmt"

	"reramsim/internal/xpoint"
)

// The named configurations of §VI. Each is defined once, as a Solver
// method that builds it on the solver's shared state from the base
// array config (usually xpoint.DefaultConfig with calibrated Params).
// The package-level functions of the same names build on a fresh,
// unshared Solver.

// Baseline builds Solver.Baseline on a fresh Solver.
func Baseline(cfg xpoint.Config) (*Scheme, error) { return new(Solver).Baseline(cfg) }

// StaticOverdrive builds Solver.StaticOverdrive on a fresh Solver.
func StaticOverdrive(cfg xpoint.Config, volts float64) (*Scheme, error) {
	return new(Solver).StaticOverdrive(cfg, volts)
}

// Hard builds Solver.Hard on a fresh Solver.
func Hard(cfg xpoint.Config) (*Scheme, error) { return new(Solver).Hard(cfg) }

// HardSys builds Solver.HardSys on a fresh Solver.
func HardSys(cfg xpoint.Config) (*Scheme, error) { return new(Solver).HardSys(cfg) }

// DRVROnly builds Solver.DRVROnly on a fresh Solver.
func DRVROnly(cfg xpoint.Config) (*Scheme, error) { return new(Solver).DRVROnly(cfg) }

// DRVRPR builds Solver.DRVRPR on a fresh Solver.
func DRVRPR(cfg xpoint.Config) (*Scheme, error) { return new(Solver).DRVRPR(cfg) }

// UDRVRPR builds Solver.UDRVRPR on a fresh Solver.
func UDRVRPR(cfg xpoint.Config) (*Scheme, error) { return new(Solver).UDRVRPR(cfg) }

// UDRVR394 builds Solver.UDRVR394 on a fresh Solver.
func UDRVR394(cfg xpoint.Config) (*Scheme, error) { return new(Solver).UDRVR394(cfg) }

// Oracle builds Solver.Oracle on a fresh Solver.
func Oracle(cfg xpoint.Config, m int) (*Scheme, error) { return new(Solver).Oracle(cfg, m) }

// Baseline is the plain 512x512 CP array with Flip-N-Write and a static
// 3 V RESET.
func (sv *Solver) Baseline(cfg xpoint.Config) (*Scheme, error) {
	return sv.NewScheme("Base", Options{Array: cfg})
}

// StaticOverdrive applies a flat boosted RESET voltage everywhere (the
// §IV-A straw man, e.g. 3.7 V): fast but over-RESETs the near cells.
func (sv *Solver) StaticOverdrive(cfg xpoint.Config, volts float64) (*Scheme, error) {
	// Eq. 1/2 keep their anchors, so the higher effective voltages
	// translate into shorter latency and exponentially lower endurance —
	// exactly the over-RESET trade-off of Fig. 6a.
	return sv.NewScheme(fmt.Sprintf("Static-%.2fV", volts),
		Options{Array: cfg, StaticLevel: volts, MaxLevel: volts})
}

// Hard combines the prior hardware techniques DSGB + DSWD + D-BL
// (Table II / §VI).
func (sv *Solver) Hard(cfg xpoint.Config) (*Scheme, error) {
	cfg.DSGB = true
	cfg.DSWD = true
	return sv.NewScheme("Hard", Options{Array: cfg, DBL: true})
}

// HardSys adds the system techniques SCH + RBDL on top of Hard.
func (sv *Solver) HardSys(cfg xpoint.Config) (*Scheme, error) {
	cfg.DSGB = true
	cfg.DSWD = true
	return sv.NewScheme("Hard+Sys", Options{Array: cfg, DBL: true, SCH: true, RBDL: true})
}

// DRVROnly is dynamic RESET voltage regulation with the 3.66 V pump.
func (sv *Solver) DRVROnly(cfg xpoint.Config) (*Scheme, error) {
	return sv.NewScheme("DRVR", Options{Array: cfg, DRVR: true})
}

// DRVRPR combines DRVR with partition RESET (the intermediate §IV-B
// configuration whose lifetime collapses to ~1 year).
func (sv *Solver) DRVRPR(cfg xpoint.Config) (*Scheme, error) {
	return sv.NewScheme("DRVR+PR", Options{Array: cfg, DRVR: true, PR: true})
}

// UDRVRPR is the paper's headline configuration: upgraded DRVR plus
// partition RESET with the 3.66 V pump.
func (sv *Solver) UDRVRPR(cfg xpoint.Config) (*Scheme, error) {
	return sv.NewScheme("UDRVR+PR", Options{Array: cfg, DRVR: true, UDRVR: true, PR: true})
}

// UDRVR394 is the §VI UDRVR-3.94 comparison: chase UDRVR+PR's array
// RESET latency with a taller (3.94 V) pump on 1-bit RESETs instead of
// partitioning. Multi-bit writes still coalesce current on the word
// line, which is why it loses to UDRVR+PR.
func (sv *Solver) UDRVR394(cfg xpoint.Config) (*Scheme, error) {
	target, err := sv.PRWorstEff(cfg, MaxLevel)
	if err != nil {
		return nil, err
	}
	return sv.NewScheme("UDRVR-3.94", Options{Array: cfg, EffTarget: target, MaxLevel: 3.94})
}

// PRWorstEff computes the effective Vrst of the array-latency-determining
// cell (top section, far mux) under DRVR+PR — the target UDRVR equalises
// toward and UDRVR-3.94 chases with voltage alone — on the solver's
// shared Array and DRVR level table.
func (sv *Solver) PRWorstEff(cfg xpoint.Config, maxLevel float64) (float64, error) {
	arr, err := sv.array(cfg)
	if err != nil {
		return 0, err
	}
	drvr, err := sv.drvrLevels(arr, Sections, maxLevel)
	if err != nil {
		return 0, err
	}
	return effInContext(arr, drvr, Sections-1, sectionMidRow(Sections-1, Sections, cfg.Size), cfg.DataWidth-1, true)
}

// Oracle returns the ora-mxm configuration: ideal taps give the array the
// voltage drop of an mxm array.
func (sv *Solver) Oracle(cfg xpoint.Config, m int) (*Scheme, error) {
	cfg.OracleBL = m
	cfg.OracleWL = m
	return sv.NewScheme(fmt.Sprintf("ora-%dx%d", m, m), Options{Array: cfg})
}
