package memsys

import (
	"fmt"

	"reramsim/internal/fault"
)

// Config parameterises the system simulation (defaults are Table III).
type Config struct {
	Cores   int     // out-of-order cores
	CoreIPC float64 // base retire rate per core (instructions/cycle)
	Window  int     // per-core instruction window (ROB) entries
	MSHRs   int     // per-core outstanding read misses
	FreqHz  float64 // core and controller clock

	Ranks        int
	BanksPerRank int

	ReadQueue  int // memory controller read queue entries
	WriteQueue int // memory controller write queue entries

	ReadBankTime float64 // bank occupancy of a line read (tRCD+tCL)
	BusTime      float64 // 64 B transfer on the 64-bit 1066 MHz channel
	MCOverhead   float64 // controller-to-bank command latency

	AccessesPerCore int   // simulation length per core
	Seed            int64 // workload generator seed

	// EagerWrites issues writes whenever a bank and its rank pump are
	// free, even with reads pending — an alternative to the paper's
	// read-first policy, compared in the write-policy ablation bench.
	EagerWrites bool

	// UseCaches enables the full-hierarchy mode: the generated address
	// streams are filtered through per-core L1/L2/L3 caches instead of
	// being treated as post-cache main-memory traffic. Table IV's
	// RPKI/WPKI are post-cache, so the headline experiments leave this
	// off; the mode exercises the cache substrate end to end.
	UseCaches bool

	// FaultProfile selects the internal/fault injection scenario ("" or
	// "none" disables injection and the write-verify stage entirely,
	// leaving the write path byte-identical to the fault-free simulator).
	FaultProfile string
	// FaultSeed seeds the per-bank fault generators; zero reuses Seed.
	FaultSeed int64
	// MaxWriteRetries bounds the write-verify retry loop: a failed line
	// write is retried at escalated Vrst up to this many times before
	// the weakest cell is declared permanently stuck.
	MaxWriteRetries int
	// ECPSpares is the per-line ECP entry budget absorbing stuck cells
	// (Table: 6 entries per 64 B line).
	ECPSpares int
	// SpareLines caps the retirement pool: lines whose ECP spares
	// exhaust are remapped there; past the cap, failures become
	// uncorrectable errors.
	SpareLines int
}

// DefaultConfig returns the Table III system.
func DefaultConfig() Config {
	return Config{
		Cores:           8,
		CoreIPC:         2.0,
		Window:          128,
		MSHRs:           8,
		FreqHz:          3.2e9,
		Ranks:           2,
		BanksPerRank:    8,
		ReadQueue:       24,
		WriteQueue:      24,
		ReadBankTime:    28e-9, // tRCD 18ns + tCL 10ns
		BusTime:         7.5e-9,
		MCOverhead:      20e-9, // 64 controller cycles
		AccessesPerCore: 20000,
		Seed:            1,
		MaxWriteRetries: 3,
		ECPSpares:       6,
		SpareLines:      256,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0 || c.CoreIPC <= 0 || c.FreqHz <= 0 || c.Window <= 0 || c.MSHRs <= 0:
		return fmt.Errorf("memsys: invalid core parameters")
	case c.Ranks <= 0 || c.BanksPerRank <= 0:
		return fmt.Errorf("memsys: invalid memory geometry")
	case c.ReadQueue <= 0 || c.WriteQueue <= 0:
		return fmt.Errorf("memsys: invalid queue sizes")
	case c.ReadBankTime <= 0 || c.BusTime < 0 || c.MCOverhead < 0:
		return fmt.Errorf("memsys: invalid timing")
	case c.AccessesPerCore <= 0:
		return fmt.Errorf("memsys: no work to simulate")
	case c.MaxWriteRetries < 0:
		return fmt.Errorf("memsys: negative MaxWriteRetries")
	case c.ECPSpares < 0 || c.SpareLines < 0:
		return fmt.Errorf("memsys: negative reliability budget")
	}
	if _, err := fault.ParseProfile(c.FaultProfile); err != nil {
		return fmt.Errorf("memsys: %w", err)
	}
	return nil
}

// faultProfile resolves the validated profile.
func (c Config) faultProfile() fault.Profile {
	p, err := fault.ParseProfile(c.FaultProfile)
	if err != nil {
		return fault.ProfileNone
	}
	return p
}

// Banks returns the total bank count.
func (c Config) Banks() int { return c.Ranks * c.BanksPerRank }
