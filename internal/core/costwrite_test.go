package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"reramsim/internal/write"
	"reramsim/internal/xpoint"
)

// refCostWrite is costWrite as it was before the scheme's mask table:
// every array of the line runs write.PartitionReset and write.DummyBL
// and counts its own bits, and every op canonicalises its own mask
// (refOpCost). It is kept verbatim as the oracle the table-driven
// pricing must match bit for bit.
func refCostWrite(ctx context.Context, s *Scheme, row, offset int, lw write.LineWrite, esc uint8) (LineCost, error) {
	cfg := s.arr.Config()
	row = s.RemapRow(row)
	if row < 0 || row >= cfg.Size {
		return LineCost{}, fmt.Errorf("core: row %d outside array", row)
	}
	if offset < 0 || offset >= cfg.MuxWidth() {
		return LineCost{}, fmt.Errorf("core: offset %d outside mux width %d", offset, cfg.MuxWidth())
	}
	section := s.levels.SectionOf(row, cfg.Size)
	offB := offset * offsetBuckets / cfg.MuxWidth()

	var out LineCost
	out.MinMargin = math.Inf(1)
	var maxResetLat float64
	for _, aw := range lw.Arrays {
		if s.opt.PR {
			aw = write.PartitionReset(aw)
		}
		resetMask := aw.Reset
		var dummies uint8
		if s.opt.DBL {
			_, dummies = write.DummyBL(aw)
			resetMask |= dummies
		}
		r, st := bits.OnesCount8(aw.Reset), bits.OnesCount8(aw.Set)
		out.Resets += r
		out.Sets += st
		out.DummyResets += bits.OnesCount8(dummies)
		if resetMask == 0 {
			continue
		}
		c, err := refOpCost(ctx, s, opKey{section: uint8(section), offB: uint8(offB), mask: resetMask, esc: esc})
		if err != nil {
			return LineCost{}, err
		}
		if c.latency > maxResetLat {
			maxResetLat = c.latency
		}
		if m := c.vmin - cfg.Params.VwriteMin; m < out.MinMargin {
			out.MinMargin = m
		}
		out.Energy += c.energy
		if c.failed {
			out.Failed = true
		}
	}

	p := cfg.Params
	totalResets := out.Resets + out.DummyResets
	resetRounds := s.pump.Rounds(totalResets, p.Ion)
	setRounds := s.pump.Rounds(out.Sets, setCurrent)
	out.PumpRounds = resetRounds + setRounds

	if totalResets > 0 {
		out.ResetLatency = maxResetLat*float64(resetRounds) + s.pump.PhaseOverheadLatency(resetRounds)
	}
	if out.Sets > 0 {
		out.SetLatency = p.Tset*float64(setRounds) + s.pump.PhaseOverheadLatency(setRounds)
		out.Energy += float64(out.Sets) * setEnergyPerBit
	}
	out.Energy = s.pump.DeliveredEnergy(out.Energy) +
		s.pump.PhaseOverheadEnergy(resetRounds) + s.pump.PhaseOverheadEnergy(setRounds)
	return out, nil
}

// refOpCost is the op lookup as refCostWrite made it: the mask is
// canonicalised per op, unless the scheme prices exact masks.
func refOpCost(ctx context.Context, s *Scheme, k opKey) (opCost, error) {
	if !s.opt.ExactMasks {
		k.mask = canonicalMask(k.mask)
	}
	if c := s.costs.table.load(k); c != nil {
		return *c, nil
	}
	return s.costs.cold(ctx, k)
}

// lineCostDiff names the first LineCost field in which got and want
// differ, floats compared by their bits; "" if none does.
func lineCostDiff(got, want LineCost) string {
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"ResetLatency", got.ResetLatency, want.ResetLatency},
		{"SetLatency", got.SetLatency, want.SetLatency},
		{"Energy", got.Energy, want.Energy},
		{"MinMargin", got.MinMargin, want.MinMargin},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s %.17g, want %.17g", f.name, f.got, f.want)
		}
	}
	for _, f := range []struct {
		name      string
		got, want int
	}{
		{"Resets", got.Resets, want.Resets},
		{"Sets", got.Sets, want.Sets},
		{"DummyResets", got.DummyResets, want.DummyResets},
		{"PumpRounds", got.PumpRounds, want.PumpRounds},
	} {
		if f.got != f.want {
			return fmt.Sprintf("%s %d, want %d", f.name, f.got, f.want)
		}
	}
	if got.Failed != want.Failed {
		return fmt.Sprintf("Failed %v, want %v", got.Failed, want.Failed)
	}
	return ""
}

// TestCostWriteMatchesReference: pricing from the scheme's mask table
// equals refCostWrite for every (Reset, Set) byte pair. The 65,536 pairs
// are shuffled over 4,096 lines, 16 to a line at seeded random array
// positions with the other 48 arrays empty, as in a real write's line.
// Each line is priced at one seeded row and offset per scheme, at
// escalation 0 and 2, on every mask transform: none, D-BL, D-BL with
// SCH and RBDL, PR, PR with UDRVR, and PR with exact masks.
func TestCostWriteMatchesReference(t *testing.T) {
	exact := func(cfg xpoint.Config) (*Scheme, error) {
		return NewScheme("UDRVR+PR exact", Options{Array: cfg, DRVR: true, UDRVR: true, PR: true, ExactMasks: true})
	}
	rng := rand.New(rand.NewSource(28))
	ctx := context.Background()
	for _, f := range []func(xpoint.Config) (*Scheme, error){Baseline, Hard, HardSys, DRVRPR, UDRVRPR, exact} {
		s := mustScheme(t, f)
		cfg := s.Array().Config()
		row, offset := rng.Intn(cfg.Size), rng.Intn(cfg.MuxWidth())
		const perLine = 16
		pairs := rng.Perm(1 << 16)
		for l := 0; l < len(pairs)/perLine; l++ {
			var lw write.LineWrite
			for i, pos := range rng.Perm(write.LineBytes)[:perLine] {
				p := pairs[l*perLine+i]
				lw.Arrays[pos] = write.ArrayWrite{Reset: uint8(p >> 8), Set: uint8(p)}
			}
			for _, esc := range []uint8{0, 2} {
				var got LineCost
				var err error
				if esc == 0 {
					got, err = s.CostWrite(ctx, row, offset, lw)
				} else {
					got, err = s.CostWriteRetry(ctx, row, offset, lw, int(esc))
				}
				if err != nil {
					t.Fatal(err)
				}
				want, err := refCostWrite(ctx, s, row, offset, lw, esc)
				if err != nil {
					t.Fatal(err)
				}
				if d := lineCostDiff(got, want); d != "" {
					t.Fatalf("%s row %d offset %d escalation %d, line %d: %s", s.Name(), row, offset, esc, l, d)
				}
			}
		}
	}
}
