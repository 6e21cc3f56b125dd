package xpoint

import (
	"context"
	"fmt"
	"math"

	"reramsim/internal/par"
)

// Map is a block-sampled field over the array: Blocks x Blocks values,
// each representing the cell at the centre of a (Size/Blocks)-wide block,
// mirroring the 64x64-cell block granularity of the paper's Fig. 4, 6,
// 11 and 13 surface plots. Values[i][j] covers rows around block-row i
// (distance from the write driver) and columns around block-column j
// (distance from the row decoder).
type Map struct {
	Blocks int
	Values [][]float64
}

// newMap allocates a Blocks x Blocks map.
func newMap(blocks int) *Map {
	m := &Map{Blocks: blocks, Values: make([][]float64, blocks)}
	for i := range m.Values {
		m.Values[i] = make([]float64, blocks)
	}
	return m
}

// Min returns the smallest finite value of the map.
func (m *Map) Min() float64 {
	best := math.Inf(1)
	for _, row := range m.Values {
		for _, v := range row {
			if v < best {
				best = v
			}
		}
	}
	return best
}

// Max returns the largest finite value of the map, ignoring +Inf entries
// (failed writes in latency maps).
func (m *Map) Max() float64 {
	best := math.Inf(-1)
	for _, row := range m.Values {
		for _, v := range row {
			if v > best && !math.IsInf(v, 1) {
				best = v
			}
		}
	}
	return best
}

// At returns the block value covering cell (row, col) of an array of the
// given size.
func (m *Map) At(size, row, col int) float64 {
	b := size / m.Blocks
	return m.Values[row/b][col/b]
}

// VoltsFunc supplies the applied RESET voltage for a cell position; the
// baseline uses a constant, DRVR varies it by row section, UDRVR by both
// row section and column multiplexer.
type VoltsFunc func(row, col int) float64

// ConstVolts returns a VoltsFunc applying v everywhere.
func ConstVolts(v float64) VoltsFunc {
	return func(int, int) float64 { return v }
}

// OpFunc expands a cell position into the full concurrent RESET operation
// used to evaluate that cell. The 1-bit default resets just the cell;
// partition RESET adds its partner columns. Map sampling calls the
// OpFunc from multiple goroutines, so it must be safe for concurrent
// use (the stock SingleBitOp and scheme-derived OpFuncs are).
type OpFunc func(row, col int) ResetOp

// SingleBitOp returns the 1-bit OpFunc under volts.
func SingleBitOp(volts VoltsFunc) OpFunc {
	return func(row, col int) ResetOp {
		return ResetOp{Row: row, Cols: []int{col}, Volts: []float64{volts(row, col)}}
	}
}

// EffectiveVrstMap samples the effective RESET voltage over the array at
// blocks x blocks granularity under op (Fig. 4b / 6b / 11b). A cancelled
// ctx (SIGINT/SIGTERM, engine shutdown) stops it mid-map instead of
// solving the remaining blocks.
func (a *Array) EffectiveVrstMap(ctx context.Context, blocks int, op OpFunc) (*Map, error) {
	return a.sampleMap(ctx, blocks, op, func(res *ResetResult, k int) float64 {
		return res.Veff[k]
	})
}

// LatencyMap samples the per-cell RESET latency (Fig. 4c / 6c / 11c /
// 13a) under ctx. Failed writes appear as +Inf.
func (a *Array) LatencyMap(ctx context.Context, blocks int, op OpFunc) (*Map, error) {
	return a.sampleMap(ctx, blocks, op, func(res *ResetResult, k int) float64 {
		return a.cfg.Params.ResetLatency(res.Veff[k])
	})
}

// EnduranceMap samples the per-cell write endurance (Fig. 4d / 6d / 11d /
// 13b) under ctx.
func (a *Array) EnduranceMap(ctx context.Context, blocks int, op OpFunc) (*Map, error) {
	return a.sampleMap(ctx, blocks, op, func(res *ResetResult, k int) float64 {
		return a.cfg.Params.EnduranceAtVoltage(res.Veff[k])
	})
}

func (a *Array) sampleMap(ctx context.Context, blocks int, op OpFunc, metric func(*ResetResult, int) float64) (*Map, error) {
	if blocks <= 0 || blocks > a.cfg.Size || a.cfg.Size%blocks != 0 {
		return nil, fmt.Errorf("xpoint: %d blocks incompatible with array size %d", blocks, a.cfg.Size)
	}
	if op == nil {
		return nil, fmt.Errorf("xpoint: nil op function")
	}
	b := a.cfg.Size / blocks
	m := newMap(blocks)
	// Every block sample is an independent nonlinear solve writing one
	// fixed slot Values[i][j], so the blocks*blocks grid fans out on the
	// worker pool; see DESIGN.md §9 for why this cannot change results.
	err := par.ForEach(ctx, blocks*blocks, func(idx int) error {
		// Re-check cancellation inside the block loop: a worker that
		// already claimed an index aborts before its (milliseconds-scale)
		// nonlinear solve, so shutdown is prompt mid-block, not just
		// between dispatch rounds.
		if err := ctx.Err(); err != nil {
			if cause := context.Cause(ctx); cause != nil {
				return cause
			}
			return err
		}
		i, j := idx/blocks, idx%blocks
		row := i*b + b/2
		col := j*b + b/2
		rop := op(row, col)
		res, err := a.SimulateReset(rop)
		if err != nil {
			return fmt.Errorf("xpoint: map sample (%d,%d): %w", row, col, err)
		}
		k, err := findCol(rop, col)
		if err != nil {
			return err
		}
		m.Values[i][j] = metric(res, k)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

func findCol(op ResetOp, col int) (int, error) {
	for k, c := range op.Cols {
		if c == col {
			return k, nil
		}
	}
	return 0, fmt.Errorf("xpoint: op for column %d does not reset it", col)
}

// WorstCase solves the traditional worst-case 1-bit RESET (the far corner
// cell) and returns its effective voltage; callers use it for Eq. 1
// calibration and quick comparisons.
func (a *Array) WorstCase(volts float64) (float64, error) {
	res, err := a.SimulateReset(ResetOp{
		Row:   a.cfg.Size - 1,
		Cols:  []int{a.cfg.Size - 1},
		Volts: []float64{volts},
	})
	if err != nil {
		return 0, err
	}
	return res.Veff[0], nil
}

// BestCase solves the no-drop corner cell (row 0, column 0).
func (a *Array) BestCase(volts float64) (float64, error) {
	res, err := a.SimulateReset(ResetOp{Row: 0, Cols: []int{0}, Volts: []float64{volts}})
	if err != nil {
		return 0, err
	}
	return res.Veff[0], nil
}
