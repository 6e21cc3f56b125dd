package jobs

import (
	"encoding/binary"
	"encoding/json"
	"net/url"
	"os"
	"path/filepath"

	"reramsim/internal/atomicio"
)

// JournalSchemaVersion is the on-disk version of the run journal, in the
// manifest and in every cell file's container. Bumping it orphans
// existing journals: they fail the manifest check and the engine
// cold-starts. Version 1 was a segment format whose replay also honoured
// the retraction record of the removed distributed plane; no reader for
// it is kept.
const JournalSchemaVersion = 2

// cellMagic identifies reramsim journal cell files.
var cellMagic = [4]byte{'R', 'S', 'J', 'L'}

// Record kinds.
const (
	recCompleted   = byte(1) // data = the cell's result payload
	recQuarantined = byte(2) // data = JSON-encoded quarantineData
)

// record is one journal entry: a completed cell with its payload, or a
// quarantined cell with its failure report.
type record struct {
	kind byte
	key  string
	data []byte
}

// quarantineData is the JSON body of a quarantine record.
type quarantineData struct {
	Reason string // "panic" | "timeout" | "error"
	Error  string
	Stack  string `json:",omitempty"`
}

// manifest pins a journal directory to one sweep configuration.
type manifest struct {
	Schema int
	Digest string // schema-versioned digest of the full sweep config
}

const manifestName = "manifest.json"

// cellExt ends every cell file name. Version-1 segments (seg-*.jrn)
// share it, so a cold start clears them too.
const cellExt = ".jrn"

// cellName is the file holding key's record: the key path-escaped, so
// "UDRVR+PR/mcf_m" is stored as "UDRVR+PR%2Fmcf_m.jrn".
func cellName(key string) string { return url.PathEscape(key) + cellExt }

// encodeCell seals one record as a cell file. The payload is kind (1) |
// key length (4, LE) | key | data; the container's SHA-256 covers the
// key, so a file never serves another cell's bytes.
func encodeCell(r record) []byte {
	p := make([]byte, 0, 1+4+len(r.key)+len(r.data))
	p = append(p, r.kind)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(r.key)))
	p = append(p, r.key...)
	p = append(p, r.data...)
	return atomicio.Seal(cellMagic, JournalSchemaVersion, p)
}

// decodeCell validates a cell file and returns its record, or false for
// any defect. It never panics on arbitrary bytes (FuzzJournalDecode).
func decodeCell(blob []byte) (record, bool) {
	p, ok := atomicio.Unseal(cellMagic, JournalSchemaVersion, blob)
	if !ok || len(p) < 1+4 || (p[0] != recCompleted && p[0] != recQuarantined) {
		return record{}, false
	}
	keyLen := binary.LittleEndian.Uint32(p[1:5])
	if uint64(keyLen) > uint64(len(p)-5) {
		return record{}, false
	}
	return record{kind: p[0], key: string(p[5 : 5+keyLen]), data: p[5+keyLen:]}, true
}

// cellFiles lists the cell files of dir.
func cellFiles(dir string) ([]string, error) {
	return filepath.Glob(filepath.Join(dir, "*"+cellExt))
}

// loadJournal opens dir for resuming: the manifest must match digest and
// schema. It returns the completed payloads by key; quarantined cells
// re-run. A missing, stale or corrupt manifest returns ok=false and the
// caller cold-starts; a cell file that fails to decode only re-runs its
// cell.
func loadJournal(dir, digest string) (done map[string][]byte, ok bool) {
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, false
	}
	var m manifest
	if json.Unmarshal(blob, &m) != nil || m.Schema != JournalSchemaVersion || m.Digest != digest {
		return nil, false
	}
	names, err := cellFiles(dir)
	if err != nil {
		return nil, false
	}
	done = make(map[string][]byte)
	for _, name := range names {
		blob, err := os.ReadFile(name)
		r, ok := decodeCell(blob)
		if err != nil || !ok {
			obsCorruptCells.Inc()
			continue
		}
		if r.kind == recCompleted {
			done[r.key] = r.data
		}
	}
	return done, true
}

// initJournal prepares dir for a fresh run: existing cell files are
// removed, then the manifest is rewritten for digest.
func initJournal(dir, digest string) error {
	names, err := cellFiles(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := os.Remove(name); err != nil {
			return err
		}
	}
	blob, err := json.MarshalIndent(manifest{Schema: JournalSchemaVersion, Digest: digest}, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFileSync(dir, manifestName, blob, 0o644)
}

// journal stores r as its cell's file in the checkpoint directory (temp
// file, fsync, rename), replacing any earlier record for the cell: a
// completion supersedes a quarantine. A kill at any instant loses at
// most the cells in flight. Without a directory it does nothing.
func (e *Engine) journal(r record) error {
	if e.opts.Dir == "" {
		return nil
	}
	if err := atomicio.WriteFileSync(e.opts.Dir, cellName(r.key), encodeCell(r), 0o644); err != nil {
		return err
	}
	obsFlushes.Inc()
	return nil
}
