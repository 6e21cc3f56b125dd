package core

import (
	"context"
	"math"

	"reramsim/internal/write"
	"reramsim/internal/xpoint"
)

// MapOp returns the operation used to evaluate a single cell under this
// scheme's policies, for the Fig. 4/6/11/13 maps: the applied voltage
// comes from the calibrated level table, and PR schemes reset the cell
// together with the partition partners Algorithm 1 would add for a write
// whose only data RESET is that cell.
func (s *Scheme) MapOp() xpoint.OpFunc {
	cfg := s.arr.Config()
	muxW := cfg.MuxWidth()
	return func(row, col int) xpoint.ResetOp {
		mux := col / muxW
		offset := col % muxW
		mask := uint8(1) << mux
		if s.opt.PR {
			aw := write.PartitionReset(write.ArrayWrite{Reset: mask})
			mask = aw.Reset
		}
		section := s.levels.SectionOf(row, cfg.Size)
		var cols []int
		var volts []float64
		for b := 0; b < 8; b++ {
			if mask&(1<<b) == 0 {
				continue
			}
			cols = append(cols, cfg.ColumnOfBit(b, offset))
			volts = append(volts, s.levels.At(section, b))
		}
		return xpoint.ResetOp{Row: row, Cols: cols, Volts: volts}
	}
}

// EffectiveVrstMap, LatencyMap and EnduranceMap sample the scheme's
// per-cell fields at blocks x blocks granularity; a cancelled ctx stops
// the sampling grid mid-map.
func (s *Scheme) EffectiveVrstMap(ctx context.Context, blocks int) (*xpoint.Map, error) {
	return s.arr.EffectiveVrstMap(ctx, blocks, s.MapOp())
}

// LatencyMap samples per-cell RESET latency under the scheme.
func (s *Scheme) LatencyMap(ctx context.Context, blocks int) (*xpoint.Map, error) {
	return s.arr.LatencyMap(ctx, blocks, s.MapOp())
}

// EnduranceMap samples per-cell endurance under the scheme.
func (s *Scheme) EnduranceMap(ctx context.Context, blocks int) (*xpoint.Map, error) {
	return s.arr.EnduranceMap(ctx, blocks, s.MapOp())
}

// WorstWriteLine is the worst-case non-stop write pattern of the §III-A
// lifetime estimate: every byte of the 64 B line changes 50% of its
// cells (the Flip-N-Write bound). The latency-worst such pattern is a
// single RESET on the far (right-most) column multiplexer — a lone far
// RESET gets no partitioning help — plus three SETs.
func WorstWriteLine() write.LineWrite {
	var lw write.LineWrite
	for i := range lw.Arrays {
		lw.Arrays[i] = write.ArrayWrite{
			Reset: 0b10000000, // bit 7: the far multiplexer
			Set:   0b00101010, // bits 5, 3, 1
		}
	}
	return lw
}

// WorstWriteCost prices the worst-case write at the scheme's slowest
// position — the far corner for single-ended arrays, the centre under
// DSGB/DSWD (both ends driven, the midpoint is furthest from help) — by
// scanning the candidate extremes. It is the denominator of the §III-A
// lifetime estimate.
func (s *Scheme) WorstWriteCost() (LineCost, error) {
	cfg := s.arr.Config()
	muxW := cfg.MuxWidth()
	lw := WorstWriteLine()
	var worst LineCost
	for _, row := range []int{cfg.Size - 1, cfg.Size / 2} {
		for _, off := range []int{muxW - 1, muxW / 2} {
			c, err := s.CostWrite(row, off, lw)
			if err != nil {
				return LineCost{}, err
			}
			if c.Latency() > worst.Latency() {
				worst = c
			}
		}
	}
	return worst, nil
}

// EnduranceFloor returns the scheme's array endurance: the minimum
// per-cell endurance under the scheme's voltage policy. Rows and columns
// are sampled at the section/mux boundaries AND their interiors — the
// extremes sit at the corners (e.g. the no-drop bottom-left cell of the
// baseline, §III-A), which block-centre sampling would miss.
func (s *Scheme) EnduranceFloor() (float64, error) {
	cfg := s.arr.Config()
	op := s.MapOp()
	p := cfg.Params
	size := cfg.Size
	coords := []int{0, size / 16, size / 2, size - size/16 - 1, size - 1}
	floor := math.Inf(1)
	for _, row := range coords {
		for _, col := range coords {
			rop := op(row, col)
			res, err := s.arr.SimulateReset(rop)
			if err != nil {
				return 0, err
			}
			for k, c := range rop.Cols {
				if c != col {
					continue
				}
				if e := p.EnduranceAtVoltage(res.Veff[k]); e < floor {
					floor = e
				}
			}
		}
	}
	return floor, nil
}
