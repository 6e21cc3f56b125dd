package jobs

import (
	"bytes"
	"testing"
)

// FuzzJournalDecode: decodeCell must never panic on a cell file's bytes,
// truncated, bit-flipped or arbitrary, and a file it accepts must hold
// exactly the bytes encodeCell writes for the decoded record.
func FuzzJournalDecode(f *testing.F) {
	good := encodeCell(record{kind: recCompleted, key: "UDRVR+PR/mcf_m", data: []byte(`{"IPC":3.25}`)})
	f.Add(good)
	f.Add(encodeCell(record{kind: recQuarantined, key: "Base/mil_m", data: []byte(`{"Reason":"panic","Error":"x"}`)}))
	f.Add(good[:len(good)/2])           // truncated mid-payload
	f.Add([]byte{})                     // empty
	f.Add([]byte("RSJL garbage"))       // magic then junk
	f.Add(bytes.Repeat([]byte{0}, 128)) // zeros
	flip := append([]byte(nil), good...)
	flip[len(flip)-3] ^= 0x40
	f.Add(flip) // bit-flipped payload

	f.Fuzz(func(t *testing.T, blob []byte) {
		r, ok := decodeCell(blob)
		if !ok {
			return
		}
		if r.kind != recCompleted && r.kind != recQuarantined {
			t.Fatalf("decoded record with invalid kind %d", r.kind)
		}
		if !bytes.Equal(encodeCell(r), blob) {
			t.Fatal("re-encoding a decoded cell file changed its bytes")
		}
	})
}
