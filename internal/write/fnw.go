package write

import (
	"fmt"
	"math/bits"
)

// LineBytes is the memory line size in bytes (Table III: 64 B lines).
const LineBytes = 64

// FNWWordBytes is the Flip-N-Write decision granularity: one flip flag
// per 32-bit word (Cho & Lee's design point). Note the granularity is
// visible in Fig. 9: with per-word flips a single 8-bit MAT slice can
// still RESET up to 8 cells, which per-byte flips would forbid.
const FNWWordBytes = 4

// FNWWords is the number of flip flags per line.
const FNWWords = LineBytes / FNWWordBytes

// ArrayWrite is the cell-change vector of one 8-bit MAT slice for one
// line write: which bits must be RESET (1 -> 0) and which SET (0 -> 1)
// after Flip-N-Write.
type ArrayWrite struct {
	Reset uint8
	Set   uint8
}

// Count returns the number of RESET and SET cells.
func (w ArrayWrite) Count() (resets, sets int) {
	return bits.OnesCount8(w.Reset), bits.OnesCount8(w.Set)
}

// LineWrite is a full 64 B line write after Flip-N-Write: one ArrayWrite
// per MAT plus the flip flags chosen (stored alongside the line, one flag
// bit per 32-bit word, as in Cho & Lee's Flip-N-Write).
type LineWrite struct {
	Arrays [LineBytes]ArrayWrite
	Flip   [FNWWords]bool
}

// Totals sums RESET and SET cell counts over the line.
func (lw *LineWrite) Totals() (resets, sets int) {
	for _, a := range lw.Arrays {
		r, s := a.Count()
		resets += r
		sets += s
	}
	return resets, sets
}

// FlipNWrite computes the minimal cell-change vectors to turn the stored
// physical line old into logical data new. Per 32-bit word it stores
// either new or ^new, whichever flips fewer cells, guaranteeing at most
// 16 of 32 cells change per word — the paper's "<= 50% cells written"
// bound. It returns the change vectors and the new stored image (with
// the chosen flip flags in LineWrite.Flip) so callers can maintain the
// stored state.
func FlipNWrite(old, new []byte) (LineWrite, [LineBytes]byte, error) {
	if len(old) != LineBytes || len(new) != LineBytes {
		return LineWrite{}, [LineBytes]byte{}, fmt.Errorf("write: line must be %d bytes, got %d/%d", LineBytes, len(old), len(new))
	}
	var lw LineWrite
	var stored [LineBytes]byte
	for w := 0; w < FNWWords; w++ {
		base := w * FNWWordBytes
		dPlain, dInv := 0, 0
		for i := base; i < base+FNWWordBytes; i++ {
			dPlain += bits.OnesCount8(old[i] ^ new[i])
			dInv += bits.OnesCount8(old[i] ^ ^new[i])
		}
		flip := dInv < dPlain
		lw.Flip[w] = flip
		for i := base; i < base+FNWWordBytes; i++ {
			img := new[i]
			if flip {
				img = ^new[i]
			}
			stored[i] = img
			diff := old[i] ^ img
			lw.Arrays[i] = ArrayWrite{
				Reset: diff & old[i],  // 1 -> 0
				Set:   diff &^ old[i], // 0 -> 1
			}
		}
	}
	return lw, stored, nil
}

// RawWrite computes the change vectors without Flip-N-Write (every
// differing cell is written); used by the ablation benches.
func RawWrite(old, new []byte) (LineWrite, error) {
	if len(old) != LineBytes || len(new) != LineBytes {
		return LineWrite{}, fmt.Errorf("write: line must be %d bytes, got %d/%d", LineBytes, len(old), len(new))
	}
	var lw LineWrite
	for i := 0; i < LineBytes; i++ {
		diff := old[i] ^ new[i]
		lw.Arrays[i] = ArrayWrite{Reset: diff & old[i], Set: diff &^ old[i]}
	}
	return lw, nil
}
