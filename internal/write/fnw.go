package write

import (
	"encoding/binary"
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

// FlipNWrite fills lw with the minimal cell-change vectors that turn
// the stored physical line old into logical data new. Per 32-bit word it
// stores either new or ^new, whichever flips fewer cells, guaranteeing
// at most 16 of 32 cells change per word — the paper's "<= 50% cells
// written" bound. The chosen flip flags land in lw.Flip; the stored
// image the write leaves is old with each array's Reset cleared and Set
// raised.
func FlipNWrite(lw *LineWrite, old, new *[LineBytes]byte) {
	for w := 0; w < FNWWords; w++ {
		base := w * FNWWordBytes
		o := binary.LittleEndian.Uint32(old[base:])
		img := binary.LittleEndian.Uint32(new[base:])
		// The inverted image differs from old in exactly the cells the
		// plain one leaves alone.
		flip := bits.OnesCount32(o^img) > FNWWordBytes*8/2
		if flip {
			img = ^img
		}
		lw.Flip[w] = flip
		diff := o ^ img
		fillWord(lw, base, diff&o, diff&^o)
	}
}

// RawWrite fills lw with the change vectors without Flip-N-Write (every
// differing cell is written); used by the ablation benches.
func RawWrite(lw *LineWrite, old, new *[LineBytes]byte) {
	lw.Flip = [FNWWords]bool{}
	for base := 0; base < LineBytes; base += FNWWordBytes {
		o := binary.LittleEndian.Uint32(old[base:])
		diff := o ^ binary.LittleEndian.Uint32(new[base:])
		fillWord(lw, base, diff&o, diff&^o)
	}
}

// fillWord stores one 32-bit word's RESET (1 -> 0) and SET (0 -> 1)
// vectors as the ArrayWrites of its four bytes, from byte base on.
func fillWord(lw *LineWrite, base int, reset, set uint32) {
	a := lw.Arrays[base : base+FNWWordBytes : base+FNWWordBytes]
	for i := range a {
		a[i] = ArrayWrite{Reset: uint8(reset >> (8 * i)), Set: uint8(set >> (8 * i))}
	}
}
