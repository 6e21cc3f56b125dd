package write

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func randLine(rng *rand.Rand) *[LineBytes]byte {
	b := new([LineBytes]byte)
	rng.Read(b[:])
	return b
}

// applyWrite plays the change vectors onto the stored image old, checks
// that each one changes only cells in the opposite state, and returns
// the image the write leaves.
func applyWrite(t *testing.T, old *[LineBytes]byte, lw *LineWrite) (stored [LineBytes]byte) {
	t.Helper()
	for i := 0; i < LineBytes; i++ {
		if lw.Arrays[i].Reset&lw.Arrays[i].Set != 0 {
			t.Fatalf("byte %d: overlapping RESET and SET masks", i)
		}
		if lw.Arrays[i].Reset&^old[i] != 0 {
			t.Fatalf("byte %d: RESET of a cell already in HRS", i)
		}
		if lw.Arrays[i].Set&old[i] != 0 {
			t.Fatalf("byte %d: SET of a cell already in LRS", i)
		}
		stored[i] = old[i]&^lw.Arrays[i].Reset | lw.Arrays[i].Set
	}
	return stored
}

func TestFlipNWriteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var lw LineWrite
	for trial := 0; trial < 200; trial++ {
		old, data := randLine(rng), randLine(rng)
		FlipNWrite(&lw, old, data)
		stored := applyWrite(t, old, &lw)
		// Decoding the stored image with the flip flags recovers the data.
		for i := 0; i < LineBytes; i++ {
			got := stored[i]
			if lw.Flip[i/FNWWordBytes] {
				got = ^got
			}
			if got != data[i] {
				t.Fatalf("byte %d: decoded %08b, want %08b", i, got, data[i])
			}
		}
	}
}

// TestFlipNWriteMatchesBytewise: the word-wide FlipNWrite and RawWrite
// fill the same vectors and flags as a byte-at-a-time evaluation of the
// definition, into a LineWrite that still holds an earlier write.
func TestFlipNWriteMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var fnw, raw LineWrite
	for trial := 0; trial < 500; trial++ {
		old, data := randLine(rng), randLine(rng)
		if trial%5 == 0 {
			copy(data[:], old[:]) // some identical and near-identical words
			data[rng.Intn(LineBytes)] ^= byte(rng.Intn(256))
		}
		var want, wantRaw LineWrite
		for w := 0; w < FNWWords; w++ {
			dPlain, dInv := 0, 0
			for i := w * FNWWordBytes; i < (w+1)*FNWWordBytes; i++ {
				dPlain += bits.OnesCount8(old[i] ^ data[i])
				dInv += bits.OnesCount8(old[i] ^ ^data[i])
			}
			want.Flip[w] = dInv < dPlain
			for i := w * FNWWordBytes; i < (w+1)*FNWWordBytes; i++ {
				img := data[i]
				if want.Flip[w] {
					img = ^img
				}
				diff := old[i] ^ img
				want.Arrays[i] = ArrayWrite{Reset: diff & old[i], Set: diff &^ old[i]}
				diff = old[i] ^ data[i]
				wantRaw.Arrays[i] = ArrayWrite{Reset: diff & old[i], Set: diff &^ old[i]}
			}
		}
		FlipNWrite(&fnw, old, data)
		RawWrite(&raw, old, data)
		if fnw != want {
			t.Fatalf("trial %d: FlipNWrite = %+v, want %+v", trial, fnw, want)
		}
		if raw != wantRaw {
			t.Fatalf("trial %d: RawWrite = %+v, want %+v", trial, raw, wantRaw)
		}
		// Swap the buffers, so each call overwrites the other's result.
		fnw, raw = raw, fnw
	}
}

// TestFlipNWriteHalfBound: the defining guarantee — at most 16 of 32
// cells change per flip word (and hence at most half the line).
func TestFlipNWriteHalfBound(t *testing.T) {
	f := func(old, data [LineBytes]byte) bool {
		var lw LineWrite
		FlipNWrite(&lw, &old, &data)
		for w := 0; w < FNWWords; w++ {
			changed := 0
			for i := w * FNWWordBytes; i < (w+1)*FNWWordBytes; i++ {
				r, s := lw.Arrays[i].Count()
				changed += r + s
			}
			if changed > FNWWordBytes*8/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFlipNWriteNeverWorseThanRaw: Flip-N-Write never writes more cells
// than the raw write.
func TestFlipNWriteNeverWorseThanRaw(t *testing.T) {
	f := func(old, data [LineBytes]byte) bool {
		var fnw, raw LineWrite
		FlipNWrite(&fnw, &old, &data)
		RawWrite(&raw, &old, &data)
		fr, fs := fnw.Totals()
		rr, rs := raw.Totals()
		return fr+fs <= rr+rs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFlipNWriteIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	old := randLine(rng)
	var lw LineWrite
	FlipNWrite(&lw, old, old)
	if r, s := lw.Totals(); r+s != 0 {
		t.Errorf("rewriting identical data changed %d cells", r+s)
	}
	if lw.Flip != [FNWWords]bool{} {
		t.Errorf("rewriting identical data set flip flags %v", lw.Flip)
	}
	if stored := applyWrite(t, old, &lw); stored != *old {
		t.Error("stored image changed on identical rewrite")
	}
}

func TestPartitionResetExample(t *testing.T) {
	// The paper's Fig. 10 write1: only bit 7 resets; PR must add paired
	// RESET+SET on bits 5, 3 and 1.
	in := ArrayWrite{Reset: 1 << 7}
	out := PartitionReset(in)
	if out.Reset != 0b10101010 {
		t.Errorf("RESET vector = %08b, want 10101010", out.Reset)
	}
	if out.Set != 0b00101010 {
		t.Errorf("SET vector = %08b, want 00101010 (compensating SETs)", out.Set)
	}
}

func TestPartitionResetNearBitsUntouched(t *testing.T) {
	// The paper's Fig. 10 write0: a RESET only in the first three bits is
	// fast already; PR must do nothing.
	for _, r := range []uint8{0b001, 0b010, 0b100, 0b111} {
		in := ArrayWrite{Reset: r, Set: 0b1000}
		if out := PartitionReset(in); out != in {
			t.Errorf("PR modified a near-decoder-only write %08b", r)
		}
	}
}

func TestPartitionResetProperties(t *testing.T) {
	f := func(r, s uint8) bool {
		s &^= r // masks never overlap by construction upstream
		in := ArrayWrite{Reset: r, Set: s}
		out := PartitionReset(in)
		// 1. Original work is preserved.
		if out.Reset&r != r || out.Set&s != s {
			return false
		}
		// 2. Every added RESET is compensated by a SET in the final
		// vector (either newly added or already part of the write), and
		// no SET is added without a matching added RESET.
		addedR := out.Reset &^ r
		addedS := out.Set &^ s
		if addedR&^out.Set != 0 || addedS&^addedR != 0 {
			return false
		}
		// 3. Added bits only on odd positions (second bit of a group).
		if addedR&0b01010101 != 0 {
			return false
		}
		// 4. After PR, every 2-bit group at or below the highest RESET
		// group contains a RESET whenever any far bit resets.
		if r&0xF8 != 0 {
			last := (bits.Len8(r) - 1) / 2
			for g := 0; g <= last; g++ {
				if out.Reset&(0b11<<(2*g)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDummyBL(t *testing.T) {
	w := ArrayWrite{Reset: 0b00000101}
	out, dummies := DummyBL(w)
	if out != w {
		t.Error("D-BL must not alter the data masks")
	}
	if dummies != 0b11111010 {
		t.Errorf("dummies = %08b, want complements of RESET bits", dummies)
	}
	if _, d := DummyBL(ArrayWrite{Set: 0b1}); d != 0 {
		t.Error("a slice with no RESET must not fire dummies")
	}
}

func TestRotateOffset(t *testing.T) {
	if got := RotateOffset(60, 10, 64); got != 6 {
		t.Errorf("RotateOffset(60,10,64) = %d, want 6", got)
	}
	if got := RotateOffset(3, -10, 64); got != 57 {
		t.Errorf("RotateOffset(3,-10,64) = %d, want 57", got)
	}
	// Property: rotation is a bijection on [0, width).
	seen := make(map[int]bool)
	for o := 0; o < 64; o++ {
		seen[RotateOffset(o, 17, 64)] = true
	}
	if len(seen) != 64 {
		t.Errorf("rotation not bijective: %d distinct outputs", len(seen))
	}
}
