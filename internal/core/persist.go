package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"reramsim/internal/solvecache"
	"reramsim/internal/xpoint"
)

// persistVersion versions the encoded payloads AND the solver algorithms
// that produce them. It is folded into every cache key, so bumping it
// after a change to calibration or solveOp semantics orphans all prior
// entries instead of replaying stale numbers. Version 2 keys memo dumps
// by cost table, not by scheme.
const persistVersion = 2

var (
	cacheMu     sync.RWMutex
	sharedCache *solvecache.Cache
)

// SetSolveCache installs the process-wide persistent solve cache used by
// schemes built from then on (nil disables it, the default). Schemes
// capture the handle at construction, and a shared cost table when it
// is made, so flipping it mid-run does not affect live schemes.
func SetSolveCache(c *solvecache.Cache) {
	cacheMu.Lock()
	sharedCache = c
	cacheMu.Unlock()
}

func solveCacheHandle() *solvecache.Cache {
	cacheMu.RLock()
	defer cacheMu.RUnlock()
	return sharedCache
}

// optionsDigest fingerprints everything that determines a scheme's
// calibrated level table: the full array config (device params
// included), every scheme option, and the calibration constants. %#v
// prints each field by name, so adding a field to any of these structs
// changes the digest and retires old entries automatically.
func optionsDigest(opt Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "reramsim/core v%d\n", persistVersion)
	fmt.Fprintf(h, "opt=%#v\n", opt)
	fmt.Fprintf(h, "sections=%d maxlevel=%v\n", Sections, MaxLevel)
	return hex.EncodeToString(h.Sum(nil))
}

// memoDigest keys a cost table's dump by everything its costs depend on
// (pricer.opForKey, costFromResult): the effective array config, the
// exact bits of the level table, the op-key constants and
// persistVersion. Schemes that share a cost table, such as DRVR and
// DRVR+PR, share its dump.
func memoDigest(cfg xpoint.Config, t *LevelTable) string {
	h := sha256.New()
	fmt.Fprintf(h, "reramsim/core memo v%d\n", persistVersion)
	fmt.Fprintf(h, "cfg=%#v\n", cfg)
	fmt.Fprintf(h, "esc=%v,%v offB=%d\n", EscalationStep, EscalationCap, offsetBuckets)
	h.Write(encodeLevels(t))
	return hex.EncodeToString(h.Sum(nil))
}

// encodeLevels serialises a level table: dims, then row-major float bits.
func encodeLevels(t *LevelTable) []byte {
	buf := make([]byte, 0, 8+8*t.Sections*t.Muxes)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Sections))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Muxes))
	for _, row := range t.V {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// decodeLevels rebuilds a level table, rejecting any payload whose
// dimensions disagree with what the caller's options imply.
func decodeLevels(b []byte, sections, muxes int) (*LevelTable, bool) {
	if len(b) < 8 {
		return nil, false
	}
	gotS := int(binary.LittleEndian.Uint32(b[:4]))
	gotM := int(binary.LittleEndian.Uint32(b[4:8]))
	if gotS != sections || gotM != muxes || len(b) != 8+8*sections*muxes {
		return nil, false
	}
	t := &LevelTable{Sections: sections, Muxes: muxes, V: make([][]float64, sections)}
	off := 8
	for s := range t.V {
		t.V[s] = make([]float64, muxes)
		for m := range t.V[s] {
			t.V[s][m] = math.Float64frombits(binary.LittleEndian.Uint64(b[off : off+8]))
			off += 8
		}
	}
	return t, true
}

// cachedLevels fetches and validates a calibrated level table.
func cachedLevels(c *solvecache.Cache, optDigest string, sections, muxes int) (*LevelTable, bool) {
	payload, ok := c.Get("levels-" + optDigest)
	if !ok {
		return nil, false
	}
	return decodeLevels(payload, sections, muxes)
}

// memo entry wire size: 4 key bytes + 4 float64s + 1 failed byte.
const memoEntrySize = 4 + 4*8 + 1

// encode dumps the cost table sorted by key, so identical tables
// encode to identical bytes regardless of insertion order.
func (p *pricer) encode() []byte {
	buf := make([]byte, 4) // entry count, filled in below
	n := 0
	p.table.each(func(k opKey, c opCost) {
		n++
		buf = append(buf, k.section, k.offB, k.mask, k.esc)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.latency))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.energy))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.itotal))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.vmin))
		failed := byte(0)
		if c.failed {
			failed = 1
		}
		buf = append(buf, failed)
	})
	binary.LittleEndian.PutUint32(buf[:4], uint32(n))
	return buf
}

// preload seeds the cost table from an encoded dump. Malformed payloads,
// including any key outside the table, load nothing (the checksum layer
// below makes this unreachable short of a version bug, and a partial
// table would still be correct — every entry is independently keyed).
func (p *pricer) preload(b []byte) {
	if len(b) < 4 {
		return
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
	if n < 0 || len(b) != 4+memoEntrySize*n {
		return
	}
	entries := b[4:]
	for i := 0; i < n; i++ {
		e := entries[i*memoEntrySize:]
		if !p.table.inRange(opKey{section: e[0], offB: e[1]}) {
			return
		}
	}
	for i := 0; i < n; i++ {
		e := entries[i*memoEntrySize:]
		k := opKey{section: e[0], offB: e[1], mask: e[2], esc: e[3]}
		p.table.store(k, opCost{
			latency: math.Float64frombits(binary.LittleEndian.Uint64(e[4:12])),
			energy:  math.Float64frombits(binary.LittleEndian.Uint64(e[12:20])),
			itotal:  math.Float64frombits(binary.LittleEndian.Uint64(e[20:28])),
			vmin:    math.Float64frombits(binary.LittleEndian.Uint64(e[28:36])),
			failed:  e[36] == 1,
		})
	}
}

// FlushMemo writes the dump of the scheme's cost table to the persistent
// solve cache when live solves have added entries since its last write,
// and does nothing otherwise or when no cache is installed. The caller
// flushes once a batch of pricing ends: experiments.Suite after every
// simulation, the CLIs at exit for ops priced outside one (Solver.Flush).
func (s *Scheme) FlushMemo() { s.costs.flush() }

// flush is FlushMemo for one cost table. Serialised by flushMu; each
// write is the full sorted dump, and every solve counted before the lock
// is in it, so the last flush after the last solve leaves the complete
// table, whatever the flush order.
func (p *pricer) flush() {
	if p.cache == nil {
		return
	}
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	n := p.solved.Load()
	if n == p.flushed {
		return
	}
	p.cache.Put(p.key, p.encode())
	p.flushed = n
}
