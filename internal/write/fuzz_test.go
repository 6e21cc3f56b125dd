package write

import (
	"bytes"
	"math/bits"
	"testing"
)

// FuzzFlipNWrite drives the data path with arbitrary line pairs and
// checks the structural invariants end to end.
func FuzzFlipNWrite(f *testing.F) {
	f.Add(make([]byte, LineBytes), bytes.Repeat([]byte{0xFF}, LineBytes))
	f.Add(bytes.Repeat([]byte{0xAA}, LineBytes), bytes.Repeat([]byte{0x55}, LineBytes))
	f.Fuzz(func(t *testing.T, old, data []byte) {
		if len(old) != LineBytes || len(data) != LineBytes {
			t.Skip()
		}
		var lw LineWrite
		FlipNWrite(&lw, (*[LineBytes]byte)(old), (*[LineBytes]byte)(data))
		for i := 0; i < LineBytes; i++ {
			aw := lw.Arrays[i]
			if aw.Reset&aw.Set != 0 {
				t.Fatalf("byte %d: overlapping masks", i)
			}
			if aw.Reset&^old[i] != 0 || aw.Set&old[i] != 0 {
				t.Fatalf("byte %d: vectors change a cell already in the target state", i)
			}
			decoded := old[i]&^aw.Reset | aw.Set
			if lw.Flip[i/FNWWordBytes] {
				decoded = ^decoded
			}
			if decoded != data[i] {
				t.Fatalf("byte %d: the stored image the vectors leave does not decode to the data", i)
			}
		}
		r, s := lw.Totals()
		if r+s > LineBytes*8/2 {
			t.Fatalf("changed %d cells, beyond the 50%% bound", r+s)
		}
	})
}

// FuzzPartitionReset checks Algorithm 1's invariants for every mask pair.
func FuzzPartitionReset(f *testing.F) {
	f.Add(uint8(0x80), uint8(0))
	f.Add(uint8(0xFF), uint8(0))
	f.Fuzz(func(t *testing.T, r, s uint8) {
		s &^= r
		out := PartitionReset(ArrayWrite{Reset: r, Set: s})
		if out.Reset&r != r || out.Set&s != s {
			t.Fatal("original work dropped")
		}
		addedR := out.Reset &^ r
		if addedR&^out.Set != 0 {
			t.Fatal("added RESET without compensating SET")
		}
		if r&0xF8 == 0 && (out.Reset != r || out.Set != s) {
			t.Fatal("near-only write modified")
		}
		if r&0xF8 != 0 {
			last := bits.Len8(r) - 1
			for g := 0; g <= last/2; g++ {
				if out.Reset&(0b11<<(2*g)) == 0 {
					t.Fatalf("group %d left without a RESET", g)
				}
			}
		}
	})
}
