// Package cache implements the set-associative write-back caches of the
// Table III hierarchy (per-core L1/L2 SRAM and the 32 MB in-package DRAM
// L3 that shields the ReRAM main memory from write traffic).
package cache

import "fmt"

// Config sizes one cache.
type Config struct {
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency int // cycles
}

// Table III cache levels.
var (
	L1Config = Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 1}
	L2Config = Config{SizeBytes: 2 << 20, LineBytes: 64, Ways: 8, HitLatency: 5}
	L3Config = Config{SizeBytes: 32 << 20, LineBytes: 64, Ways: 16, HitLatency: 96}
)

type entry struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// Stats accumulates cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative write-back, write-allocate cache with LRU
// replacement. It tracks line addresses only (no data), which is all the
// timing and traffic models need.
type Cache struct {
	cfg   Config
	sets  [][]entry
	clock uint64
	Stats Stats
}

// New builds a cache. It returns an error if the geometry is not a
// power-of-two set count.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", lines, cfg.Ways)
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	sets := make([][]entry, nsets)
	backing := make([]entry, nsets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{cfg: cfg, sets: sets}, nil
}

// Result describes one access outcome.
type Result struct {
	Hit bool
	// Writeback holds the dirty line evicted by a miss fill, when any.
	Writeback    uint64
	HasWriteback bool
}

// Access looks line up, filling on miss and marking dirty on writes.
func (c *Cache) Access(line uint64, isWrite bool) Result {
	c.clock++
	c.Stats.Accesses++
	set := c.sets[line%uint64(len(c.sets))]
	tag := line / uint64(len(c.sets))

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Stats.Hits++
			set[i].lru = c.clock
			if isWrite {
				set[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.Stats.Misses++

	// Fill: evict the LRU way.
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	var res Result
	if set[victim].valid && set[victim].dirty {
		c.Stats.Writebacks++
		res.HasWriteback = true
		res.Writeback = set[victim].tag*uint64(len(c.sets)) + line%uint64(len(c.sets))
	}
	set[victim] = entry{tag: tag, valid: true, dirty: isWrite, lru: c.clock}
	return res
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Hierarchy chains L1 -> L2 -> L3 for one core and reports which
// accesses reach main memory.
type Hierarchy struct {
	L1, L2, L3 *Cache
}

// NewHierarchy builds the Table III per-core hierarchy.
func NewHierarchy() (*Hierarchy, error) {
	l1, err := New(L1Config)
	if err != nil {
		return nil, err
	}
	l2, err := New(L2Config)
	if err != nil {
		return nil, err
	}
	l3, err := New(L3Config)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: l1, L2: l2, L3: l3}, nil
}

// MemoryAccess is main-memory traffic emitted by the hierarchy.
type MemoryAccess struct {
	Line    uint64
	IsWrite bool
}

// Access walks the hierarchy and returns the hit latency in cycles plus
// any main-memory accesses generated (a demand miss and/or L3 dirty
// writeback).
func (h *Hierarchy) Access(line uint64, isWrite bool) (latency int, mem []MemoryAccess) {
	if h.L1.Access(line, isWrite).Hit {
		return h.L1.cfg.HitLatency, nil
	}
	latency += h.L1.cfg.HitLatency
	if h.L2.Access(line, isWrite).Hit {
		return latency + h.L2.cfg.HitLatency, nil
	}
	latency += h.L2.cfg.HitLatency
	r3 := h.L3.Access(line, isWrite)
	latency += h.L3.cfg.HitLatency
	if r3.Hit {
		return latency, nil
	}
	mem = append(mem, MemoryAccess{Line: line})
	if r3.HasWriteback {
		mem = append(mem, MemoryAccess{Line: r3.Writeback, IsWrite: true})
	}
	return latency, mem
}
