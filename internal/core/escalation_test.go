package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"reramsim/internal/write"
	"reramsim/internal/xpoint"
)

// escCfg is the calibrated array configuration shared by the
// escalation tests (calibration is slow; do it once).
var escCfg = sync.OnceValue(func() xpoint.Config {
	cfg := xpoint.DefaultConfig()
	p, err := xpoint.CalibrateLatency(cfg, xpoint.BestCaseLatency, xpoint.WorstCaseLatency)
	if err != nil {
		panic(err)
	}
	cfg.Params = p
	return cfg
})

func escLineWrite() write.LineWrite {
	var lw write.LineWrite
	for i := range lw.Arrays {
		lw.Arrays[i] = write.ArrayWrite{Reset: 1 << uint(i%8)}
	}
	return lw
}

// TestCostWriteRetryEscalates: each retry step must raise the delivered
// margin (the whole point of voltage escalation) and never slow the op.
func TestCostWriteRetryEscalates(t *testing.T) {
	s, err := Baseline(escCfg())
	if err != nil {
		t.Fatal(err)
	}
	lw := escLineWrite()
	row, off := s.Array().Config().Size-1, 63 // worst corner
	base, err := s.CostWrite(context.Background(), row, off, lw)
	if err != nil {
		t.Fatal(err)
	}
	prev := base
	for esc := 1; esc <= 3; esc++ {
		c, err := s.CostWriteRetry(context.Background(), row, off, lw, esc)
		if err != nil {
			t.Fatal(err)
		}
		if c.MinMargin <= prev.MinMargin {
			t.Errorf("escalation %d margin %.3f did not grow from %.3f", esc, c.MinMargin, prev.MinMargin)
		}
		if c.Latency() > prev.Latency() {
			t.Errorf("escalation %d latency %.3g slower than %.3g", esc, c.Latency(), prev.Latency())
		}
		prev = c
	}
	// Sub-unit sensitivity notwithstanding, one 0.1 V applied step must
	// deliver a sizable fraction of it at the cell.
	one, _ := s.CostWriteRetry(context.Background(), row, off, lw, 1)
	if gain := one.MinMargin - base.MinMargin; gain < EscalationStep/2 || gain > EscalationStep*1.5 {
		t.Errorf("one escalation step delivered %.3f V of margin, want ~%.2f", gain, EscalationStep)
	}
}

// TestEscalationClamped: absurd escalation depths must clamp at
// EscalationCap rather than request voltages the pump cannot supply.
func TestEscalationClamped(t *testing.T) {
	s, err := Baseline(escCfg())
	if err != nil {
		t.Fatal(err)
	}
	lw := escLineWrite()
	big, err := s.CostWriteRetry(context.Background(), 100, 10, lw, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// At the cap the delivered voltage cannot exceed the cap itself.
	if big.MinMargin+s.Array().Config().Params.VwriteMin > EscalationCap {
		t.Errorf("clamped retry delivered %.3f V effective, above the %.2f V cap",
			big.MinMargin+s.Array().Config().Params.VwriteMin, EscalationCap)
	}
	// Clamping must be idempotent: one more step changes nothing.
	again, err := s.CostWriteRetry(context.Background(), 100, 10, lw, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if again.MinMargin != big.MinMargin {
		t.Errorf("escalation past the cap still moved the margin: %.4f vs %.4f", again.MinMargin, big.MinMargin)
	}
}

// TestMinMarginSectionGradient pins the IR-drop thesis at the cost-model
// level: under the flat baseline the far section's delivered margin
// trails the near section's, while UDRVR+PR equalises them.
func TestMinMarginSectionGradient(t *testing.T) {
	lw := escLineWrite()
	base, err := Baseline(escCfg())
	if err != nil {
		t.Fatal(err)
	}
	size := base.Array().Config().Size
	near, err := base.CostWrite(context.Background(), 0, 0, lw)
	if err != nil {
		t.Fatal(err)
	}
	far, err := base.CostWrite(context.Background(), size-1, 63, lw)
	if err != nil {
		t.Fatal(err)
	}
	if far.MinMargin >= near.MinMargin-0.2 {
		t.Errorf("baseline far margin %.3f should trail near margin %.3f by IR drop", far.MinMargin, near.MinMargin)
	}

	u, err := UDRVRPR(escCfg())
	if err != nil {
		t.Fatal(err)
	}
	uNear, err := u.CostWrite(context.Background(), 0, 0, lw)
	if err != nil {
		t.Fatal(err)
	}
	uFar, err := u.CostWrite(context.Background(), size-1, 63, lw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(uFar.MinMargin-uNear.MinMargin) > 0.15 {
		t.Errorf("UDRVR margins not equalised: near %.3f vs far %.3f", uNear.MinMargin, uFar.MinMargin)
	}
	if uFar.MinMargin <= far.MinMargin {
		t.Errorf("UDRVR far margin %.3f should beat baseline far margin %.3f", uFar.MinMargin, far.MinMargin)
	}
}

// TestMinMarginSetOnly: a write with no RESETs has infinite margin (there
// is nothing for write-verify to re-drive).
func TestMinMarginSetOnly(t *testing.T) {
	s, err := Baseline(escCfg())
	if err != nil {
		t.Fatal(err)
	}
	var lw write.LineWrite
	for i := range lw.Arrays {
		lw.Arrays[i] = write.ArrayWrite{Set: 0xFF}
	}
	c, err := s.CostWrite(context.Background(), 0, 0, lw)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(c.MinMargin, 1) {
		t.Errorf("SET-only write margin = %v, want +Inf", c.MinMargin)
	}
}
