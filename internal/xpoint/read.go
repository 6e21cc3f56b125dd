package xpoint

import (
	"fmt"

	"reramsim/internal/device"
)

// ReadResult reports the electrical outcome of a read access: the sensed
// cell currents with the target cell in LRS and in HRS, and the resulting
// sense margin. The paper asserts that read sneak "is not significant in
// a moderate size array" (§II-B); this model quantifies that claim.
type ReadResult struct {
	ILRS   []float64 // sensed current per selected column, target in LRS
	IHRS   []float64 // sensed current per selected column, target in HRS
	Margin []float64 // (ILRS-IHRS)/ILRS per selected column
	Iword  float64   // total word-line current (row-decoder load)
}

// SimulateRead evaluates a read of the cells at (row, cols): the selected
// word-line is driven to Vread from the row decoder, the selected
// bit-lines are held at virtual ground by the sense amplifiers, and
// unselected bit-lines float (no DC sneak, Fig. 2's read scheme). The
// position dependence comes from the word-line IR drop under the
// aggregate read current of the data path.
func (a *Array) SimulateRead(row int, cols []int) (*ReadResult, error) {
	cfg := a.cfg
	if row < 0 || row >= cfg.Size {
		return nil, fmt.Errorf("xpoint: read row %d outside array", row)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("xpoint: read selects no columns")
	}
	for _, c := range cols {
		if c < 0 || c >= cfg.Size {
			return nil, fmt.Errorf("xpoint: read column %d outside array", c)
		}
	}
	p := cfg.Params
	// Reads use the static (ohmic element + selector) cell model: the
	// saturating model describes the RESET transient's compliance
	// behaviour, while a read at 1.8 V sees the un-switching cell — the
	// composite yields ~10 uA per LRS cell, matching Table III's 8.2 uA.
	lrs := device.Tabulate(p.CompositeLRSCell(), p.Vread*1.5, 2048)
	hrs := device.Tabulate(p.CompositeHRSCell(), p.Vread*1.5, 2048)

	solve := func(target int, targetState device.State) ([]float64, float64, error) {
		l := newLadder(cfg.Size, cfg.Rwire)
		l.setSource(0, p.Vread, cfg.Rdec)
		l.setBounds(0, p.Vread)
		for _, c := range cols {
			dev := lrs
			if c == target && targetState == device.HRS {
				dev = hrs
			}
			// The sense amp holds the selected bit-line near ground; the
			// bit-line wire from the cell to the bottom adds row*Rwire,
			// a few tens of millivolts at read currents — folded into
			// the virtual-ground potential as zero.
			l.setLoad(c, dev, 0)
		}
		l.init(p.Vread)
		if res, _ := l.solve(1e-9, 600); res > 1e-6 {
			return nil, 0, fmt.Errorf("xpoint: read ladder did not settle (residual %g)", res)
		}
		outs := make([]float64, len(cols))
		for i, c := range cols {
			outs[i] = l.loadCurrent(c)
		}
		return outs, l.sourceCurrent(0), nil
	}

	out := &ReadResult{
		ILRS:   make([]float64, len(cols)),
		IHRS:   make([]float64, len(cols)),
		Margin: make([]float64, len(cols)),
	}
	// All-LRS pattern: the worst word-line loading.
	allLRS, iword, err := solve(-1, device.LRS)
	if err != nil {
		return nil, err
	}
	out.Iword = iword
	copy(out.ILRS, allLRS)
	for i, c := range cols {
		hrsCase, _, err := solve(c, device.HRS)
		if err != nil {
			return nil, err
		}
		out.IHRS[i] = hrsCase[i]
		if out.ILRS[i] > 0 {
			out.Margin[i] = (out.ILRS[i] - out.IHRS[i]) / out.ILRS[i]
		}
	}
	return out, nil
}

// WorstReadMargin returns the smallest sense margin across the data path
// at the far row — the read-integrity figure of merit for the array.
func (a *Array) WorstReadMargin() (float64, error) {
	cfg := a.cfg
	cols := make([]int, cfg.DataWidth)
	for b := range cols {
		cols[b] = cfg.ColumnOfBit(b, cfg.MuxWidth()-1)
	}
	res, err := a.SimulateRead(cfg.Size-1, cols)
	if err != nil {
		return 0, err
	}
	worst := 1.0
	for _, m := range res.Margin {
		if m < worst {
			worst = m
		}
	}
	return worst, nil
}
