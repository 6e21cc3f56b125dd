package memsys

import (
	"errors"

	"reramsim/internal/ecp"
	"reramsim/internal/fault"
	"reramsim/internal/wear"
)

// Reliability aggregates the fault-handling outcome of a run. The block
// is attached to Result only when a fault profile is active, so
// fault-free Result JSON stays byte-identical to the plain simulator's.
type Reliability struct {
	Profile string

	WriteRetries   uint64 // escalated re-attempts issued
	VerifyFailures uint64 // attempts that failed verify (incl. retried ones)
	MaxEscalation  int    // deepest escalation any write needed

	StuckCells    uint64  // cells declared permanently stuck
	RetiredLines  uint64  // lines retired after ECP spare exhaustion
	Uncorrectable uint64  // failures past the spare-line pool
	RetryEnergy   float64 // J spent on re-attempts (also inside Energy.Write)
}

// spareBase places retired lines far above both the leveler's 2^30-line
// demand space and any raw physical id, so spare ids never collide.
const spareBase = uint64(1) << 40

// cellsPerLine is the cell count of a 64 B line (write.LineBytes * 8).
const cellsPerLine = 512

// initFaults builds the injection state when a profile is selected. With
// the "none" profile everything stays nil and the write path never
// touches it.
func (s *sim) initFaults() error {
	profile := s.cfg.faultProfile()
	if profile == fault.ProfileNone {
		return nil
	}
	seed := s.cfg.FaultSeed
	if seed == 0 {
		seed = s.cfg.Seed
	}
	inj, err := fault.New(fault.DefaultConfig(profile, seed, s.cfg.Banks()))
	if err != nil {
		return err
	}
	s.inj = inj
	s.ecpLines = make(map[uint64]*ecp.Line)
	s.retire, err = wear.NewRetirementMap(spareBase, s.cfg.SpareLines)
	if err != nil {
		return err
	}
	s.res.Reliability = &Reliability{Profile: profile.String()}
	return nil
}

// writeWithVerify services one issued write under fault injection: the
// initial attempt plus a verify read, then bounded retries at escalated
// Vrst while verify keeps failing. It returns the total bank-busy time,
// energy and cells written of the service, all charged through the
// regular LineCost path. Exhausted retries degrade the line (stuck cell
// -> ECP patch -> retirement -> uncorrectable).
func (s *sim) writeWithVerify(req *writeReq) (busy, energyJ float64, cells int, err error) {
	rel := s.res.Reliability
	cost := req.cost
	busy = cost.Latency() + s.cfg.ReadBankTime // attempt + verify read
	energyJ = cost.Energy
	cells = cost.CellsWritten() + cost.DummyResets

	margin := cost.MinMargin
	dv := s.inj.Undershoot(req.bank)
	esc := 0
	for s.inj.AttemptFails(req.bank, margin-dv, dv > 0) {
		rel.VerifyFailures++
		if esc >= s.cfg.MaxWriteRetries {
			// Retries exhausted: the op's weakest cells are permanently
			// stuck. The controller patches them via ECP and the
			// (corrected) write completes; the line degrades rather than
			// the data corrupting.
			for _, cell := range s.inj.ExhaustStuck(req.bank) {
				s.failCell(req.phys, cell)
			}
			break
		}
		esc++
		rel.WriteRetries++
		rc, cerr := s.scheme.CostWriteRetry(s.ctx, req.row, req.offset, req.lw, esc)
		if cerr != nil {
			return 0, 0, 0, cerr
		}
		busy += rc.Latency() + s.cfg.ReadBankTime
		energyJ += rc.Energy
		rel.RetryEnergy += rc.Energy
		cells += rc.CellsWritten() + rc.DummyResets
		margin = rc.MinMargin
		dv = s.inj.Undershoot(req.bank)
	}
	if esc > rel.MaxEscalation {
		rel.MaxEscalation = esc
	}
	// Even a verified write wears its cells: the endurance profiles may
	// leave one stuck after the fact (Eq. 2's accelerated aging).
	if cell, stuck := s.inj.StuckAfterWrite(req.bank, cost.Resets); stuck {
		s.failCell(req.phys, cell)
	}
	return busy, energyJ, cells, nil
}

// failCell marks one cell of a physical line permanently stuck and walks
// the degradation ladder: ECP patch while spares last, line retirement
// when they exhaust, uncorrectable past the spare-line pool.
func (s *sim) failCell(phys uint64, cell int) {
	rel := s.res.Reliability
	l := s.ecpLines[phys]
	if l == nil {
		nl, err := ecp.NewLine(cellsPerLine, s.cfg.ECPSpares)
		if err != nil {
			// Geometry is validated in Config; a failure here is a bug.
			panic(err)
		}
		l = nl
		s.ecpLines[phys] = l
	}
	if l.Patched(cell) && !l.Dead {
		return // this cell already wore out and is patched; nothing new
	}
	rel.StuckCells++
	err := l.Fail(cell)
	if err == nil {
		return
	}
	if !errors.Is(err, ecp.ErrDead) {
		panic(err)
	}
	if _, already := s.retire.Lookup(phys); already {
		// The line died and retired earlier in this same multi-cell
		// burst; the remaining cells go down with it.
		return
	}
	if _, ok := s.retire.Retire(phys); ok {
		rel.RetiredLines++
		return
	}
	rel.Uncorrectable++
}
