// Package cpu implements the interval-style out-of-order core model of
// Table III: a 4-wide core with a 128-entry instruction window and 8
// MSHRs per core. Like Sniper's interval model, the core retires
// instructions at a base rate between memory events; a long-latency load
// does not necessarily stall it — the window keeps filling and further
// independent misses issue concurrently (memory-level parallelism) until
// either the MSHRs are exhausted or the window wraps around the oldest
// outstanding miss.
package cpu

import "fmt"

// Config sizes one core.
type Config struct {
	BaseIPC float64 // retire rate between memory stalls (instr/cycle)
	Window  int     // instruction window (ROB) entries
	MSHRs   int     // outstanding read misses
	FreqHz  float64
}

// DefaultConfig is the Table III core: 3.2 GHz, 4-wide (an effective
// base IPC of 2 with realistic dependency stalls), 128-entry window,
// 8 MSHRs.
func DefaultConfig() Config {
	return Config{BaseIPC: 2.0, Window: 128, MSHRs: 8, FreqHz: 3.2e9}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.BaseIPC <= 0 || c.Window <= 0 || c.MSHRs <= 0 || c.FreqHz <= 0 {
		return fmt.Errorf("cpu: invalid core config %+v", c)
	}
	return nil
}

// Core is the per-core interval state machine. The memory-system
// simulator drives it: Advance when instructions retire, IssueRead when
// a demand miss leaves the core, CompleteOldest when data returns.
type Core struct {
	cfg      Config
	instrPos uint64   // instructions issued into the window so far
	inflight []uint64 // window positions of outstanding reads (FIFO)
}

// New builds a core. Config must be valid.
func New(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Core{cfg: cfg}, nil
}

// Advance accounts gap retired instructions and returns the compute time
// they take at the base rate.
func (c *Core) Advance(gap uint64) float64 {
	c.instrPos += gap
	return float64(gap) / (c.cfg.BaseIPC * c.cfg.FreqHz)
}

// IssueRead records a demand read leaving the core at the current window
// position.
func (c *Core) IssueRead() {
	c.inflight = append(c.inflight, c.instrPos)
}

// CompleteOldest retires the oldest outstanding read (the ROB drains from
// its head). Completing with nothing outstanding is a no-op. The at most
// MSHRs survivors are copied down rather than re-sliced, so the FIFO keeps
// its backing array and IssueRead never reallocates it.
func (c *Core) CompleteOldest() {
	if n := len(c.inflight); n > 0 {
		copy(c.inflight, c.inflight[1:])
		c.inflight = c.inflight[:n-1]
	}
}

// Outstanding returns the number of in-flight reads.
func (c *Core) Outstanding() int { return len(c.inflight) }

// Blocked reports whether the core must stall before issuing more work:
// either every MSHR is busy or the window has wrapped around the oldest
// outstanding miss.
func (c *Core) Blocked() bool {
	if len(c.inflight) == 0 {
		return false
	}
	if len(c.inflight) >= c.cfg.MSHRs {
		return true
	}
	return c.instrPos-c.inflight[0] >= uint64(c.cfg.Window)
}

// InstrPos returns the number of instructions issued so far.
func (c *Core) InstrPos() uint64 { return c.instrPos }
