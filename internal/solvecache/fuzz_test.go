package solvecache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"reramsim/internal/atomicio"
)

// headerSize is the length of an entry with an empty payload: the
// sealed container's header.
var headerSize = len(encodeEntry(nil))

func encodeEntry(payload []byte) []byte { return atomicio.Seal(magic, SchemaVersion, payload) }

func decodeEntry(blob []byte) ([]byte, bool) { return atomicio.Unseal(magic, SchemaVersion, blob) }

// FuzzEntryDecode fuzzes the sealed container (atomicio.Seal/Unseal,
// shared with the jobs journal) as the solve cache reads it: Unseal must
// never panic, and a corrupt, truncated or arbitrary blob must decode as
// a miss — the behaviour the whole cache contract rests on (a bad entry
// silently falls back to a live solve, it never poisons a result).
func FuzzEntryDecode(f *testing.F) {
	good := encodeEntry([]byte(`{"levels":[3.25,3.4,3.55],"memo":"..."}`))
	f.Add(good)
	f.Add(encodeEntry(nil))            // empty payload is a valid entry
	f.Add(good[:len(good)/2])          // truncated mid-payload
	f.Add(good[:headerSize])           // header only (claims a payload it lacks)
	f.Add(good[:3])                    // shorter than the magic
	f.Add([]byte{})                    // empty file
	f.Add([]byte("RSSC garbage"))      // magic then junk
	f.Add(bytes.Repeat([]byte{0}, 96)) // zeros
	flip := append([]byte(nil), good...)
	flip[len(flip)-1] ^= 0x01
	f.Add(flip) // bit-flipped payload (checksum must catch it)
	ver := append([]byte(nil), good...)
	ver[4]++
	f.Add(ver) // bumped schema version
	grown := append(append([]byte(nil), good...), 'x')
	f.Add(grown) // extended file (length mismatch)

	f.Fuzz(func(t *testing.T, blob []byte) {
		payload, ok := decodeEntry(blob)
		if !ok {
			if payload != nil {
				t.Fatal("miss returned a non-nil payload")
			}
			return
		}
		// A blob that decodes must round-trip: re-encoding its payload
		// reproduces a container whose payload decodes identically.
		payload2, ok2 := decodeEntry(encodeEntry(payload))
		if !ok2 || !bytes.Equal(payload, payload2) {
			t.Fatalf("re-encode round trip failed (ok=%v)", ok2)
		}
	})
}

// TestCorruptEntryFallsBackToLiveSolve drives the same property through
// the public API: whatever bytes are sitting in the cache file, Get
// reports a miss (never a wrong payload, never a panic), so the caller's
// live-solve path always engages.
func TestCorruptEntryFallsBackToLiveSolve(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "memo-deadbeef"
	want := []byte("payload-bytes")
	c.Put(key, want)
	good, err := os.ReadFile(filepath.Join(c.Dir(), key+".bin"))
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string][]byte{
		"truncated-header":  good[:headerSize-1],
		"truncated-payload": good[:len(good)-1],
		"flipped-payload":   flipByte(good, len(good)-1),
		"flipped-checksum":  flipByte(good, 20),
		"flipped-magic":     flipByte(good, 0),
		"empty":             {},
	}
	for name, blob := range corruptions {
		if err := os.WriteFile(filepath.Join(c.Dir(), key+".bin"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if p, ok := c.Get(key); ok {
			t.Errorf("%s: Get returned a hit (%q) from a corrupt entry", name, p)
		}
	}
	// Restore the good bytes: the entry must hit again (proving the
	// misses above were the corruption, not the harness).
	if err := os.WriteFile(filepath.Join(c.Dir(), key+".bin"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if p, ok := c.Get(key); !ok || !bytes.Equal(p, want) {
		t.Fatalf("restored entry missed (ok=%v, payload=%q)", ok, p)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}
