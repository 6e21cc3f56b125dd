package core

import (
	"context"
	"fmt"

	"reramsim/internal/par"
	"reramsim/internal/xpoint"
)

// Sections is the default number of DRVR bit-line sections: the top
// three row address bits select among eight Vrst levels (Fig. 7a). The
// section-count ablation bench sweeps other values.
const Sections = 8

// MaxLevel is the highest Vrst the upgraded charge pump supplies to DRVR
// and UDRVR (§IV-D: 3.66 V).
const MaxLevel = 3.66

// LevelTable holds the applied RESET voltage per (row section, column
// multiplexer). A flat scheme stores the same value everywhere; DRVR
// varies rows only; UDRVR varies both.
type LevelTable struct {
	Sections int
	Muxes    int
	V        [][]float64 // [section][mux]
}

// FlatLevels returns a table applying v everywhere.
func FlatLevels(sections, muxes int, v float64) *LevelTable {
	t := &LevelTable{Sections: sections, Muxes: muxes, V: make([][]float64, sections)}
	for s := range t.V {
		t.V[s] = make([]float64, muxes)
		for m := range t.V[s] {
			t.V[s][m] = v
		}
	}
	return t
}

// At returns the level for a cell at the given row and column mux.
func (t *LevelTable) At(section, mux int) float64 { return t.V[section][mux] }

// Escalated returns the level of (section, mux) raised by esc write-verify
// retry steps of step volts each, clamped at cap. A per-section table
// (DRVR/UDRVR) escalates each section from its own calibrated level; a
// flat table (baseline) escalates its single global level — both are the
// same uniform offset on whatever the op would have applied.
func (t *LevelTable) Escalated(section, mux, esc int, step, cap float64) float64 {
	v := t.V[section][mux] + float64(esc)*step
	if v > cap {
		v = cap
	}
	return v
}

// Max returns the largest level in the table (the pump output the scheme
// requires).
func (t *LevelTable) Max() float64 {
	best := 0.0
	for _, row := range t.V {
		for _, v := range row {
			if v > best {
				best = v
			}
		}
	}
	return best
}

// SectionOf maps a row to its section for an array of the given size.
func (t *LevelTable) SectionOf(row, size int) int { return row * t.Sections / size }

// sectionMidRow returns the calibration row of a section (its centre).
func sectionMidRow(section, sections, size int) int {
	return section*size/sections + size/(2*sections)
}

// solveLevel finds the applied voltage that makes the cell at (row, col)
// reach targetEff, by secant iteration on the 1-bit model. With the
// compliance-limited cell, effective voltage is nearly affine in the
// applied level, so two or three iterations suffice. The result is
// clamped to [vNominal, maxV] for boost calibration, or [minV, vNominal]
// when lowering (UDRVR), via the lo/hi bounds.
func solveLevel(arr *xpoint.Array, row, col int, targetEff, start, lo, hi float64) (float64, error) {
	eff := func(va float64) (float64, error) {
		res, err := arr.SimulateReset(xpoint.ResetOp{Row: row, Cols: []int{col}, Volts: []float64{va}})
		if err != nil {
			return 0, err
		}
		return res.Veff[0], nil
	}
	va := start
	for iter := 0; iter < 8; iter++ {
		e, err := eff(va)
		if err != nil {
			return 0, err
		}
		diff := targetEff - e
		if diff < 1e-3 && diff > -1e-3 {
			break
		}
		va += diff // near-unit sensitivity of Veff to Va
		if va < lo {
			va = lo
		}
		if va > hi {
			va = hi
		}
	}
	return va, nil
}

// CalibrateDRVRSections computes per-section DRVR levels: each section's
// level makes its mid-row cell on the left-most bit-line match the
// effective Vrst of the bottom section, compensating bit-line voltage
// drop only (Fig. 7). Levels are clamped at maxV.
func CalibrateDRVRSections(arr *xpoint.Array, sections int, maxV float64) (*LevelTable, error) {
	cfg := arr.Config()
	if sections <= 0 || sections > cfg.Size {
		return nil, fmt.Errorf("core: invalid section count %d", sections)
	}
	vn := cfg.Params.Vrst
	refRes, err := arr.SimulateReset(xpoint.ResetOp{
		Row: sectionMidRow(0, sections, cfg.Size), Cols: []int{0}, Volts: []float64{vn},
	})
	if err != nil {
		return nil, fmt.Errorf("core: DRVR reference: %w", err)
	}
	ref := refRes.Veff[0]

	t := FlatLevels(sections, cfg.DataWidth, vn)
	// Deliberately serial: section s seeds its secant solve from section
	// s-1's computed level (the warm start makes the iteration converge in
	// two or three steps). Fanning sections out would need a different
	// start and change the iterates bit-for-bit, breaking the parallel ==
	// serial output guarantee, so DRVR calibration stays sequential.
	for s := 1; s < sections; s++ {
		level, err := solveLevel(arr, sectionMidRow(s, sections, cfg.Size), 0, ref, t.V[s-1][0], vn, maxV)
		if err != nil {
			return nil, fmt.Errorf("core: DRVR section %d: %w", s, err)
		}
		for m := range t.V[s] {
			t.V[s][m] = level
		}
	}
	return t, nil
}

// prContextMuxes returns the multiplexers participating in the canonical
// partition-RESET operation whose last data RESET sits on mux m: the
// write.PartitionReset expansion of a single-bit mask.
func prContextMuxes(m int) []int {
	switch {
	case m <= 2:
		return []int{m} // near muxes stay 1-bit (Algorithm 1's early out)
	default:
		out := []int{}
		for g := 0; g <= m/2; g++ {
			bit := 2*g + 1
			if bit > m {
				bit = m
			}
			if len(out) == 0 || out[len(out)-1] != bit {
				out = append(out, bit)
			}
		}
		return out
	}
}

// CalibrateUDRVR upgrades a DRVR table: within each section, column
// multiplexers closer to the row decoder receive lower levels so every
// cell matches the effective Vrst of the right-most (worst) multiplexer,
// lifting the endurance floor without changing the array RESET latency
// (§IV-C). Levels never drop below minV.
//
// When prContext is true the calibration evaluates every cell inside the
// multi-bit operation partition RESET actually issues for it (the paper
// targets "the same effective Vrst as the right-most BL in Figure 11b" —
// a DRVR+PR map); otherwise plain 1-bit operations are used.
func CalibrateUDRVR(arr *xpoint.Array, drvr *LevelTable, minV, maxV float64, prContext bool) (*LevelTable, error) {
	cfg := arr.Config()
	muxes := cfg.DataWidth
	t := FlatLevels(drvr.Sections, muxes, cfg.Params.Vrst)
	for s := range t.V {
		copy(t.V[s], drvr.V[s])
	}

	// Sections are independent: section s reads and writes only its own
	// row t.V[s] (seeded from drvr above), so they run one per task and
	// the table is bit-identical at any worker count.
	err := par.ForEach(context.Background(), t.Sections, func(s int) error {
		row := sectionMidRow(s, t.Sections, cfg.Size)
		// The array latency determinant: the far mux inside its own
		// operation context at the DRVR level.
		target, err := effInContext(arr, t, s, row, muxes-1, prContext)
		if err != nil {
			return fmt.Errorf("core: UDRVR section %d reference: %w", s, err)
		}
		// The contexts couple the muxes (level changes shift the shared
		// trunk current), so sweep the row a few times.
		for pass := 0; pass < 3; pass++ {
			for m := muxes - 2; m >= 0; m-- {
				eff, err := effInContext(arr, t, s, row, m, prContext)
				if err != nil {
					return fmt.Errorf("core: UDRVR section %d mux %d: %w", s, m, err)
				}
				level := t.V[s][m] + (target - eff)
				if level < minV {
					level = minV
				}
				if level > maxV {
					level = maxV
				}
				t.V[s][m] = level
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// effInContext measures the effective Vrst of the mux-m cell in its
// canonical operation under the current level table: the cell alone, or
// with prContext the multi-bit operation partition RESET issues for it.
func effInContext(arr *xpoint.Array, t *LevelTable, s, row, m int, prContext bool) (float64, error) {
	muxW := arr.Config().MuxWidth()
	participants := []int{m}
	if prContext {
		participants = prContextMuxes(m)
	}
	n := len(participants)
	op := xpoint.ResetOp{Row: row, Cols: make([]int, n), Volts: make([]float64, n)}
	idx := -1
	for i, pm := range participants {
		op.Cols[i] = pm*muxW + muxW/2
		op.Volts[i] = t.V[s][pm]
		if pm == m {
			idx = i
		}
	}
	res, err := arr.SimulateReset(op)
	if err != nil {
		return 0, err
	}
	return res.Veff[idx], nil
}

// CalibrateTargetEff builds a full (section, mux) level table that drives
// every cell to targetEff on 1-bit RESETs, clamped to [minV, maxV]. This
// is the §VI UDRVR-3.94 configuration: use a taller pump instead of PR to
// chase the same single-bit latency.
func CalibrateTargetEff(arr *xpoint.Array, targetEff, minV, maxV float64) (*LevelTable, error) {
	cfg := arr.Config()
	muxes := cfg.DataWidth
	muxW := cfg.MuxWidth()
	t := FlatLevels(Sections, muxes, cfg.Params.Vrst)
	// Sections are independent (mux m's secant warm-starts from mux m+1's
	// level in the same section, never across sections), so they run one
	// per task and the table is bit-identical at any worker count.
	err := par.ForEach(context.Background(), Sections, func(s int) error {
		row := sectionMidRow(s, Sections, cfg.Size)
		for m := muxes - 1; m >= 0; m-- {
			start := cfg.Params.Vrst
			if m < muxes-1 {
				start = t.V[s][m+1]
			}
			level, err := solveLevel(arr, row, m*muxW+muxW/2, targetEff, start, minV, maxV)
			if err != nil {
				return fmt.Errorf("core: target calibration section %d mux %d: %w", s, m, err)
			}
			t.V[s][m] = level
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
