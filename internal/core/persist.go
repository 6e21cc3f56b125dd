package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"reramsim/internal/solvecache"
)

// persistVersion versions the encoded payloads AND the solver algorithms
// that produce them. It is folded into every cache key, so bumping it
// after a change to calibration or solveOp semantics orphans all prior
// entries instead of replaying stale numbers.
const persistVersion = 1

var (
	cacheMu     sync.RWMutex
	sharedCache *solvecache.Cache
)

// SetSolveCache installs the process-wide persistent solve cache used by
// schemes built from then on (nil disables it, the default). Schemes
// capture the handle at construction, so flipping it mid-run does not
// affect live schemes.
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

// optionsDigest fingerprints everything that determines a scheme's solved
// products: the full array config (device params included), every scheme
// option, and the cost-model constants. %#v prints each field by name, so
// adding a field to any of these structs changes the digest and retires
// old entries automatically.
func optionsDigest(opt Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "reramsim/core v%d\n", persistVersion)
	fmt.Fprintf(h, "opt=%#v\n", opt)
	fmt.Fprintf(h, "esc=%v,%v offB=%d sections=%d maxlevel=%v\n",
		EscalationStep, EscalationCap, offsetBuckets, Sections, MaxLevel)
	return hex.EncodeToString(h.Sum(nil))
}

// memoDigest keys the memo table: the options digest plus the exact bits
// of the level table the ops are priced against (defensive — the table is
// itself a function of the options, but tying the memo to its literal
// contents makes a calibration change impossible to alias).
func memoDigest(optDigest string, t *LevelTable) string {
	h := sha256.New()
	fmt.Fprintf(h, "memo opt=%s dims=%dx%d\n", optDigest, t.Sections, t.Muxes)
	var b [8]byte
	for _, row := range t.V {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
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

// encodeMemo dumps the scheme's memo table sorted by key, so identical
// tables encode to identical bytes regardless of insertion order.
func (s *Scheme) encodeMemo() []byte {
	type entry struct {
		k opKey
		c opCost
	}
	var entries []entry
	for i := range s.memo {
		sh := &s.memo[i]
		sh.mu.Lock()
		for k, c := range sh.m {
			entries = append(entries, entry{k, c})
		}
		sh.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].k, entries[j].k
		if a.section != b.section {
			return a.section < b.section
		}
		if a.offB != b.offB {
			return a.offB < b.offB
		}
		if a.mask != b.mask {
			return a.mask < b.mask
		}
		return a.esc < b.esc
	})
	buf := make([]byte, 0, 4+memoEntrySize*len(entries))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = append(buf, e.k.section, e.k.offB, e.k.mask, e.k.esc)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.c.latency))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.c.energy))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.c.itotal))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.c.vmin))
		failed := byte(0)
		if e.c.failed {
			failed = 1
		}
		buf = append(buf, failed)
	}
	return buf
}

// preloadMemo seeds the memo shards from an encoded dump. Malformed
// payloads load nothing (the checksum layer below makes this unreachable
// short of a version bug, and a partial table would still be correct —
// every entry is independently keyed).
func (s *Scheme) preloadMemo(b []byte) {
	if len(b) < 4 {
		return
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
	if n < 0 || len(b) != 4+memoEntrySize*n {
		return
	}
	off := 4
	for i := 0; i < n; i++ {
		k := opKey{section: b[off], offB: b[off+1], mask: b[off+2], esc: b[off+3]}
		off += 4
		var c opCost
		c.latency = math.Float64frombits(binary.LittleEndian.Uint64(b[off : off+8]))
		c.energy = math.Float64frombits(binary.LittleEndian.Uint64(b[off+8 : off+16]))
		c.itotal = math.Float64frombits(binary.LittleEndian.Uint64(b[off+16 : off+24]))
		c.vmin = math.Float64frombits(binary.LittleEndian.Uint64(b[off+24 : off+32]))
		off += 32
		c.failed = b[off] == 1
		off++
		sh := &s.memo[shardOf(k)]
		sh.mu.Lock()
		sh.m[k] = c
		sh.mu.Unlock()
	}
}

// flushMemo persists the current memo table. Serialised by flushMu so
// concurrent cold misses do not interleave temp files; each flush is a
// full sorted dump, so the last writer always leaves a complete table.
func (s *Scheme) flushMemo() {
	if s.cache == nil {
		return
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.cache.Put(s.memoKey, s.encodeMemo())
}
