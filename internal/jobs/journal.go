package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"reramsim/internal/atomicio"
)

// JournalSchemaVersion is the on-disk container version of the run
// journal. Bumping it orphans existing journals: they fail the manifest
// check and the engine cold-starts.
const JournalSchemaVersion = 1

// segMagic identifies reramsim job-journal segment files.
var segMagic = [4]byte{'R', 'S', 'J', 'L'}

// Segment container layout (solvecache-style): magic (4) | schema
// (4, LE) | payload length (8, LE) | payload SHA-256 (32) | payload.
// The payload is a sequence of records, each individually CRC-framed so
// a truncated tail loses only the torn record, not the whole segment.
const segHeaderSize = 4 + 4 + 8 + sha256.Size

// Record kinds. Nothing writes kind 3 any more: it is the retraction
// record of earlier builds, whose distributed coordinator struck a
// completion after an audit divergence. Replay still honours it, so a
// checkpoint directory written by such a build re-runs the retracted
// cell instead of serving it from disk.
const (
	recCompleted   = byte(1) // data = the cell's result payload
	recQuarantined = byte(2) // data = JSON-encoded quarantineData
	recRetracted   = byte(3) // legacy; data = JSON-encoded quarantineData explaining why the completion was withdrawn
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

func marshalQuarantine(q quarantineData) ([]byte, error) { return json.Marshal(q) }

// manifest pins a journal directory to one sweep configuration.
type manifest struct {
	Schema int
	Digest string // schema-versioned digest of the full sweep config
}

const manifestName = "manifest.json"

// encodeRecord appends one length-and-CRC framed record to buf:
// kind (1) | key length (4, LE) | key | data length (8, LE) | data |
// CRC-32/IEEE of everything above (4, LE).
func encodeRecord(buf []byte, r record) []byte {
	start := len(buf)
	buf = append(buf, r.kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.key)))
	buf = append(buf, r.key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(r.data)))
	buf = append(buf, r.data...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// decodeRecords parses a segment payload. It returns every record up to
// the first framing or CRC violation; the error reports what stopped the
// scan (nil for a clean payload).
func decodeRecords(payload []byte) ([]record, error) {
	var recs []record
	for off := 0; off < len(payload); {
		rest := payload[off:]
		if len(rest) < 1+4 {
			return recs, errors.New("jobs: truncated record header")
		}
		kind := rest[0]
		keyLen := int(binary.LittleEndian.Uint32(rest[1:5]))
		if keyLen < 0 || keyLen > len(rest)-(1+4) {
			return recs, errors.New("jobs: record key overruns segment")
		}
		p := 1 + 4 + keyLen
		if len(rest) < p+8 {
			return recs, errors.New("jobs: truncated record length")
		}
		dataLen64 := binary.LittleEndian.Uint64(rest[p : p+8])
		if dataLen64 > uint64(len(rest)-(p+8)) {
			return recs, errors.New("jobs: record data overruns segment")
		}
		dataLen := int(dataLen64)
		end := p + 8 + dataLen
		if len(rest) < end+4 {
			return recs, errors.New("jobs: truncated record checksum")
		}
		if crc32.ChecksumIEEE(rest[:end]) != binary.LittleEndian.Uint32(rest[end:end+4]) {
			return recs, errors.New("jobs: record checksum mismatch")
		}
		if kind != recCompleted && kind != recQuarantined && kind != recRetracted {
			return recs, fmt.Errorf("jobs: unknown record kind %d", kind)
		}
		recs = append(recs, record{
			kind: kind,
			key:  string(rest[1+4 : 1+4+keyLen]),
			data: append([]byte(nil), rest[p+8:end]...),
		})
		off += end + 4
	}
	return recs, nil
}

// encodeSegment wraps records in the checksummed container.
func encodeSegment(recs []record) []byte {
	var payload []byte
	for _, r := range recs {
		payload = encodeRecord(payload, r)
	}
	blob := make([]byte, segHeaderSize, segHeaderSize+len(payload))
	copy(blob[:4], segMagic[:])
	binary.LittleEndian.PutUint32(blob[4:8], JournalSchemaVersion)
	binary.LittleEndian.PutUint64(blob[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(blob[16:segHeaderSize], sum[:])
	return append(blob, payload...)
}

// decodeSegment validates the container and parses its records. A
// damaged container (bad magic, stale schema, length or digest mismatch)
// yields no records; a container whose payload is intact up to a torn
// tail yields the leading records plus the error.
func decodeSegment(blob []byte) ([]record, error) {
	if len(blob) < segHeaderSize || [4]byte(blob[:4]) != segMagic {
		return nil, errors.New("jobs: not a journal segment")
	}
	if binary.LittleEndian.Uint32(blob[4:8]) != JournalSchemaVersion {
		return nil, errors.New("jobs: journal segment from another schema version")
	}
	payload := blob[segHeaderSize:]
	if binary.LittleEndian.Uint64(blob[8:16]) != uint64(len(payload)) {
		return nil, errors.New("jobs: segment length mismatch")
	}
	if sha256.Sum256(payload) != [sha256.Size]byte(blob[16:segHeaderSize]) {
		return nil, errors.New("jobs: segment digest mismatch")
	}
	return decodeRecords(payload)
}

// journal is the append-only on-disk record of one sweep run: a manifest
// pinning the config digest plus numbered segment files, each written
// atomically (temp + rename + fsync) so a crash between cells never
// leaves a torn journal — at worst the last in-flight segment is missing
// and its cells re-run.
type journal struct {
	dir string

	mu      sync.Mutex
	nextSeg int
	pending []record
}

func segName(n int) string { return fmt.Sprintf("seg-%08d.jrn", n) }

// segFiles lists the segment files of dir in replay (numeric) order.
func segFiles(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.jrn"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names) // zero-padded fixed width: lexical == numeric
	return names, nil
}

// loadJournal opens dir for resuming: the manifest must match digest and
// schema, and every readable segment is replayed. It returns the
// completed payloads and the keys quarantined on disk (informational;
// quarantined cells re-run on resume). A missing, stale or corrupt
// manifest returns ok=false — the caller cold-starts.
func loadJournal(dir, digest string) (done map[string][]byte, quarantined map[string]quarantineData, next int, ok bool) {
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, 1, false
	}
	var m manifest
	if json.Unmarshal(blob, &m) != nil || m.Schema != JournalSchemaVersion || m.Digest != digest {
		return nil, nil, 1, false
	}
	done = make(map[string][]byte)
	quarantined = make(map[string]quarantineData)
	segs, err := segFiles(dir)
	if err != nil {
		return nil, nil, 1, false
	}
	next = 1
	for _, name := range segs {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%08d.jrn", &n); err == nil && n >= next {
			next = n + 1
		}
		blob, err := os.ReadFile(name)
		if err != nil {
			obsCorruptSegs.Inc()
			continue
		}
		recs, derr := decodeSegment(blob)
		if derr != nil {
			obsCorruptSegs.Inc()
		}
		// Cells are independent, so records before a torn tail (and in
		// later intact segments) stay usable.
		for _, r := range recs {
			switch r.kind {
			case recCompleted:
				done[r.key] = r.data
				delete(quarantined, r.key) // a later completion supersedes a quarantine
			case recQuarantined:
				var q quarantineData
				if json.Unmarshal(r.data, &q) == nil {
					quarantined[r.key] = q
				}
			case recRetracted:
				// A (legacy) retraction withdraws an earlier completion:
				// on replay the cell is no longer done and re-runs, with
				// the stored report kept as its quarantine state.
				delete(done, r.key)
				var q quarantineData
				if json.Unmarshal(r.data, &q) == nil {
					quarantined[r.key] = q
				}
			}
		}
	}
	return done, quarantined, next, true
}

// initJournal prepares dir for a fresh run: existing segments are
// removed and the manifest is rewritten for digest.
func initJournal(dir, digest string) (*journal, error) {
	segs, err := segFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range segs {
		if err := os.Remove(name); err != nil {
			return nil, err
		}
	}
	blob, err := json.MarshalIndent(manifest{Schema: JournalSchemaVersion, Digest: digest}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := atomicio.WriteFileSync(dir, manifestName, blob, 0o644); err != nil {
		return nil, err
	}
	return &journal{dir: dir, nextSeg: 1}, nil
}

// append queues a record and flushes it to its own segment immediately:
// the default policy is one segment per completed cell, so a kill at any
// instant loses at most the cell in flight.
func (j *journal) append(r record) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending = append(j.pending, r)
	return j.flushLocked()
}

// flush writes any buffered records out as a final checkpoint segment
// (the graceful-shutdown path calls it after cancellation).
func (j *journal) flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *journal) flushLocked() error {
	if len(j.pending) == 0 {
		return nil
	}
	blob := encodeSegment(j.pending)
	if err := atomicio.WriteFileSync(j.dir, segName(j.nextSeg), blob, 0o644); err != nil {
		return Transient(err) // journal I/O is retryable by policy
	}
	j.nextSeg++
	j.pending = j.pending[:0]
	obsFlushes.Inc()
	return nil
}
