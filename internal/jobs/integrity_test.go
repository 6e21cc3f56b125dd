package jobs

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"reramsim/internal/atomicio"
)

// v1Segment encodes recs as a schema-1 segment file: the sealed
// container around CRC-framed records, kind (1) | key length (4, LE) |
// key | data length (8, LE) | data | CRC-32 of the above (4, LE).
func v1Segment(recs ...record) []byte {
	var p []byte
	for _, r := range recs {
		start := len(p)
		p = append(p, r.kind)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(r.key)))
		p = append(p, r.key...)
		p = binary.LittleEndian.AppendUint64(p, uint64(len(r.data)))
		p = append(p, r.data...)
		p = binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(p[start:]))
	}
	return atomicio.Seal(cellMagic, 1, p)
}

// TestSchemaV1JournalColdStarts: a journal directory in the schema-1
// segment format, here holding two completions and a kind-3 retraction
// record of the removed distributed plane, fails the manifest check on
// -resume. The engine cold-starts: every cell re-runs, and the old
// segments are gone from the directory.
func TestSchemaV1JournalColdStarts(t *testing.T) {
	dir := t.TempDir()
	m, err := json.Marshal(manifest{Schema: 1, Digest: "d1"})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		manifestName:       m,
		"seg-00000001.jrn": v1Segment(record{kind: recCompleted, key: "cell-00", data: []byte("stale 0")}),
		"seg-00000002.jrn": v1Segment(record{kind: recCompleted, key: "cell-01", data: []byte("stale 1")}),
		"seg-00000003.jrn": v1Segment(record{kind: 3, key: "cell-00", data: []byte(`{"Reason":"audit"}`)}),
	}
	for name, blob := range files {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e := mustOpen(t, Options{Dir: dir, Digest: "d1", Resume: true})
	rep, err := e.Run(context.Background(), grid(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resumed) != 0 || len(rep.Executed) != 2 || string(rep.Done["cell-01"]) != "payload for cell-01" {
		t.Fatalf("resumed=%v executed=%v, want every cell re-run", rep.Resumed, rep.Executed)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jrn")); len(segs) != 0 {
		t.Fatalf("schema-1 segments left behind: %v", segs)
	}
}

// TestJournalDiskFullRetries: a journal fsync failing with ENOSPC in
// the middle of a run is retried in place. Every cell finishes, nothing
// is quarantined, and the journal ends up complete: a resumed engine
// serves every cell from disk. The hook goes in after Open, so the
// manifest write is spared.
func TestJournalDiskFullRetries(t *testing.T) {
	dir := t.TempDir()
	eng := mustOpen(t, Options{Dir: dir, Digest: "d1", sleep: func(context.Context, time.Duration) {}})
	failSyncs(t, cellName("cell-02"), 2)

	rep, err := eng.Run(context.Background(), grid(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Done) != 4 || rep.Retries != 2 || len(rep.Quarantined) != 0 {
		t.Fatalf("done=%d retries=%d quarantined=%v, want 4, 2, none", len(rep.Done), rep.Retries, rep.Quarantined)
	}

	eng2 := mustOpen(t, Options{Dir: dir, Digest: "d1", Resume: true})
	rep2, err := eng2.Run(context.Background(), grid(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Resumed) != 4 || len(rep2.Executed) != 0 {
		t.Fatalf("resumed=%v executed=%v, want all 4 cells from disk", rep2.Resumed, rep2.Executed)
	}
	for _, c := range grid(4) {
		if want := "payload for " + c.Key; string(rep2.Done[c.Key]) != want {
			t.Fatalf("resumed %s = %q, want %q", c.Key, rep2.Done[c.Key], want)
		}
	}
}
