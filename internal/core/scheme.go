package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"reramsim/internal/chargepump"
	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/solvecache"
	"reramsim/internal/write"
	"reramsim/internal/xpoint"
)

// Options selects which techniques a Scheme applies on top of a base
// array configuration. Hardware toggles (DSGB/DSWD/oracle) live inside
// Array; the rest are write-path policies.
type Options struct {
	Array xpoint.Config

	DRVR  bool // per-section RESET voltage regulation
	UDRVR bool // per-mux downscaling on top of DRVR
	PR    bool // partition RESET mask augmentation
	DBL   bool // dummy bit-line forced multi-bit RESETs
	SCH   bool // hot-line scheduling onto fast rows
	RBDL  bool // row-biased data layout (halves the BL LRS load)

	// MaxLevel caps the charge-pump output for DRVR/UDRVR; zero selects
	// the paper's 3.66 V.
	MaxLevel float64

	// StaticLevel, when positive, applies one flat RESET voltage to every
	// cell (the §IV-A static over-drive straw man). Mutually exclusive
	// with DRVR.
	StaticLevel float64

	// EffTarget, when positive, calibrates a full per-(section, mux)
	// level table that drives every cell to this effective Vrst on 1-bit
	// RESETs (the §VI UDRVR-3.94 configuration). Mutually exclusive with
	// DRVR and StaticLevel.
	EffTarget float64

	// DRVRSections overrides the number of DRVR voltage levels (default
	// 8, the paper's three row-address bits). Used by the section-count
	// ablation bench.
	DRVRSections int

	// ExactMasks disables the (N, rightmost-mux) canonicalisation of the
	// RESET cost lookup table; every distinct mask is solved exactly.
	// Used by the LUT ablation bench.
	ExactMasks bool
}

// Scheme is one evaluated configuration: a calibrated level table, the
// mask transformations, the charge pump, and a memoized RESET cost model.
// Scheme is safe for concurrent use.
type Scheme struct {
	name string
	opt  Options
	arr  *xpoint.Array
	pump chargepump.Config

	levels *LevelTable

	// The RESET cost memo is the hot shared structure when simulations
	// fan out: every write prices its ops here. Hits read the lock-free
	// table; flight collapses concurrent cold misses of the same key onto
	// one solve.
	memo   costTable
	flight par.Group[opKey, opCost]

	// Persistent solve cache (nil when disabled). Captured from the
	// process-wide handle at construction; memoKey addresses this
	// scheme's memo dump and flushMu serialises its rewrites. solved
	// counts live solves stored in the memo; flushed is its value at
	// the last dump written (guarded by flushMu).
	cache   *solvecache.Cache
	memoKey string
	flushMu sync.Mutex
	solved  atomic.Uint64
	flushed uint64
}

type opKey struct {
	section uint8
	offB    uint8
	mask    uint8
	esc     uint8 // write-verify retry escalation steps above the table
}

type opCost struct {
	latency float64
	energy  float64
	itotal  float64
	vmin    float64 // smallest delivered effective Vrst of the op
	failed  bool
}

// Write-verify retry escalation: each retry raises the applied RESET
// level by EscalationStep volts above the calibrated table, capped at
// EscalationCap (the charge-pump model's tallest supported output, the
// §VI 3.94 V three-stage pump).
const (
	EscalationStep = 0.1
	EscalationCap  = 3.94
)

// offsetBuckets quantizes the column-mux offset for the cost table; each
// bucket is represented by its worst (largest) offset.
const offsetBuckets = 4

// NewScheme builds and calibrates a scheme. Construction solves a few
// dozen array operating points (DRVR/UDRVR calibration); reuse schemes
// across simulations.
func NewScheme(name string, opt Options) (*Scheme, error) {
	if opt.MaxLevel == 0 {
		opt.MaxLevel = MaxLevel
	}
	if opt.UDRVR && !opt.DRVR {
		return nil, fmt.Errorf("core: UDRVR requires DRVR")
	}
	if opt.StaticLevel > 0 && opt.DRVR {
		return nil, fmt.Errorf("core: static over-drive and DRVR are mutually exclusive")
	}
	if opt.EffTarget > 0 && (opt.DRVR || opt.StaticLevel > 0) {
		return nil, fmt.Errorf("core: EffTarget excludes DRVR and StaticLevel")
	}
	cfg := opt.Array
	if opt.RBDL {
		// RBDL spreads the line's LRS cells evenly over the bit-lines, so
		// the loading drops from the worst-case all-LRS line to the
		// average half-LRS population.
		cfg.LRSFrac = math.Min(cfg.LRSFrac, 0.5)
	}
	arr, err := xpoint.New(cfg)
	if err != nil {
		return nil, err
	}

	// The persistent solve cache (when installed) serves the calibrated
	// level tables and, below, the RESET cost memo. Keys are content
	// digests of the options, so a cached table is exactly what the live
	// calibration would compute — loading it changes no downstream bit.
	cache := solveCacheHandle()
	var optDigest string
	if cache != nil {
		optDigest = optionsDigest(opt)
	}

	sections := opt.DRVRSections
	if sections == 0 {
		sections = Sections
	}
	levels := FlatLevels(sections, cfg.DataWidth, cfg.Params.Vrst)
	minLevel := cfg.Params.VwriteMin + 0.3
	switch {
	case opt.StaticLevel > 0:
		levels = FlatLevels(sections, cfg.DataWidth, opt.StaticLevel)
	case opt.EffTarget > 0:
		if t, ok := cachedLevels(cache, optDigest, Sections, cfg.DataWidth); ok {
			levels = t
			break
		}
		levels, err = CalibrateTargetEff(arr, opt.EffTarget, minLevel, opt.MaxLevel)
		if err != nil {
			return nil, err
		}
		cache.Put("levels-"+optDigest, encodeLevels(levels))
	case opt.DRVR:
		if t, ok := cachedLevels(cache, optDigest, sections, cfg.DataWidth); ok {
			levels = t
			break
		}
		levels, err = CalibrateDRVRSections(arr, sections, opt.MaxLevel)
		if err != nil {
			return nil, err
		}
		if opt.UDRVR {
			levels, err = CalibrateUDRVR(arr, levels, minLevel, opt.MaxLevel, opt.PR)
			if err != nil {
				return nil, err
			}
		}
		cache.Put("levels-"+optDigest, encodeLevels(levels))
	}

	pumpV := math.Max(cfg.Params.Vrst, levels.Max())
	pump, err := chargepump.ForVoltage(pumpV)
	if err != nil {
		return nil, err
	}
	if opt.DBL {
		pump = pump.Doubled()
	}

	s := &Scheme{
		name:   name,
		opt:    opt,
		arr:    arr,
		pump:   pump,
		levels: levels,
		memo:   costTable{sections: levels.Sections},
		cache:  cache,
	}
	if cache != nil {
		// The memo dump is keyed by the level table's exact bits on top of
		// the options digest; a warm directory seeds the whole cost table
		// here, so a repeat sweep prices every op without touching the
		// array solver.
		s.memoKey = "memo-" + memoDigest(optDigest, levels)
		if payload, ok := cache.Get(s.memoKey); ok {
			s.preloadMemo(payload)
		}
	}
	return s, nil
}

// Name returns the scheme's display name.
func (s *Scheme) Name() string { return s.name }

// Options returns the scheme's configuration.
func (s *Scheme) Options() Options { return s.opt }

// Pump returns the charge pump this scheme requires.
func (s *Scheme) Pump() chargepump.Config { return s.pump }

// Levels returns the calibrated voltage-level table.
func (s *Scheme) Levels() *LevelTable { return s.levels }

// Array returns the underlying array model.
func (s *Scheme) Array() *xpoint.Array { return s.arr }

// WearLevelingCompatible reports whether the scheme tolerates inter- and
// intra-line wear leveling (Table II): the system-based techniques SCH
// and RBDL do not.
func (s *Scheme) WearLevelingCompatible() bool { return !s.opt.SCH && !s.opt.RBDL }

// RemapRow applies SCH's hot-line scheduling: write-intensive lines land
// in the fastest quarter of the rows (those closest to the write
// drivers). Without SCH the row passes through.
func (s *Scheme) RemapRow(row int) int {
	if !s.opt.SCH {
		return row
	}
	return row % (s.arr.Config().Size / 4)
}

// LineCost is the memory-side cost of one 64 B line write under a scheme.
type LineCost struct {
	ResetLatency float64 // RESET phase latency incl. pump overhead (s)
	SetLatency   float64 // SET phase latency incl. pump overhead (s)
	Energy       float64 // write energy drawn from Vdd (J)

	Resets      int // data-cell RESETs performed
	Sets        int // data-cell SETs performed
	DummyResets int // D-BL dummy-column RESETs
	PumpRounds  int // total pump iterations across both phases
	Failed      bool

	// MinMargin is the smallest delivered effective Vrst above the write
	// threshold across the write's RESET cells (V); +Inf for SET-only
	// writes. Write-verify failure probability is a function of it.
	MinMargin float64
}

// Latency returns the total write service latency.
func (c LineCost) Latency() float64 { return c.ResetLatency + c.SetLatency }

// CellsWritten returns how many data cells change.
func (c LineCost) CellsWritten() int { return c.Resets + c.Sets }

// CostWrite prices a line write at the given array row and column-mux
// offset. The row should already reflect inter-line wear leveling; SCH's
// remapping is applied internally. ctx carries only the span that a
// cold solve's core.solve_op span nests under; pricing does not poll it.
func (s *Scheme) CostWrite(ctx context.Context, row, offset int, lw write.LineWrite) (LineCost, error) {
	return s.costWrite(ctx, row, offset, lw, 0)
}

// CostWriteRetry prices a write-verify retry of the same line write with
// the applied RESET levels escalated `escalation` steps of
// EscalationStep volts above the calibrated table (capped at
// EscalationCap). Per-section tables (DRVR/UDRVR) escalate from the
// failing section's own level; flat tables escalate their global level —
// one op only ever touches one section, so both are the same uniform
// boost on the retried op.
func (s *Scheme) CostWriteRetry(ctx context.Context, row, offset int, lw write.LineWrite, escalation int) (LineCost, error) {
	if escalation < 1 {
		escalation = 1
	}
	if escalation > 255 {
		escalation = 255
	}
	return s.costWrite(ctx, row, offset, lw, uint8(escalation))
}

func (s *Scheme) costWrite(ctx context.Context, row, offset int, lw write.LineWrite, esc uint8) (LineCost, error) {
	cfg := s.arr.Config()
	row = s.RemapRow(row)
	if row < 0 || row >= cfg.Size {
		return LineCost{}, fmt.Errorf("core: row %d outside array", row)
	}
	if offset < 0 || offset >= cfg.MuxWidth() {
		return LineCost{}, fmt.Errorf("core: offset %d outside mux width %d", offset, cfg.MuxWidth())
	}
	section := s.levels.SectionOf(row, cfg.Size)
	offB := offset * offsetBuckets / cfg.MuxWidth()

	var out LineCost
	out.MinMargin = math.Inf(1)
	var maxResetLat float64
	for _, aw := range lw.Arrays {
		if s.opt.PR {
			aw = write.PartitionReset(aw)
		}
		resetMask := aw.Reset
		var dummies uint8
		if s.opt.DBL {
			_, dummies = write.DummyBL(aw)
			resetMask |= dummies
		}
		r, st := bits.OnesCount8(aw.Reset), bits.OnesCount8(aw.Set)
		out.Resets += r
		out.Sets += st
		out.DummyResets += bits.OnesCount8(dummies)
		if resetMask == 0 {
			continue
		}
		c, err := s.opCost(ctx, opKey{section: uint8(section), offB: uint8(offB), mask: resetMask, esc: esc})
		if err != nil {
			return LineCost{}, err
		}
		if c.latency > maxResetLat {
			maxResetLat = c.latency
		}
		if m := c.vmin - cfg.Params.VwriteMin; m < out.MinMargin {
			out.MinMargin = m
		}
		out.Energy += c.energy
		if c.failed {
			out.Failed = true
		}
	}

	p := cfg.Params
	totalResets := out.Resets + out.DummyResets
	resetRounds := s.pump.Rounds(totalResets, p.Ion)
	setRounds := s.pump.Rounds(out.Sets, setCurrent)
	out.PumpRounds = resetRounds + setRounds

	if totalResets > 0 {
		out.ResetLatency = maxResetLat*float64(resetRounds) + s.pump.PhaseOverheadLatency(resetRounds)
	}
	if out.Sets > 0 {
		out.SetLatency = p.Tset*float64(setRounds) + s.pump.PhaseOverheadLatency(setRounds)
		out.Energy += float64(out.Sets) * setEnergyPerBit
	}
	// Convert delivered (cell-side) energy through the pump and add the
	// pump's own per-round overhead.
	out.Energy = s.pump.DeliveredEnergy(out.Energy) +
		s.pump.PhaseOverheadEnergy(resetRounds) + s.pump.PhaseOverheadEnergy(setRounds)
	return out, nil
}

// Table III SET phase constants: 98.6 uA and 29.8 pJ per bit at 3 V.
const (
	setCurrent      = 98.6e-6
	setEnergyPerBit = 29.8e-12
)

// opCost returns the memoized cost of one array RESET operation.
// Concurrent cold misses of the same key collapse onto one solve via the
// scheme's singleflight. A newly solved entry only bumps the scheme's
// solve count; FlushMemo writes the entries to the persistent cache,
// once per finished simulation, not once per solve.
func (s *Scheme) opCost(ctx context.Context, k opKey) (opCost, error) {
	if !s.opt.ExactMasks {
		k.mask = canonicalMasks[k.mask]
	}
	if c := s.memo.load(k); c != nil {
		obsMemoHits.Inc()
		return *c, nil
	}
	obsMemoMisses.Inc()
	c, _, err := s.flight.Do(k, func() (opCost, error) {
		// Re-check under the flight: a solve that completed between our
		// miss and this call has already published the value.
		if c := s.memo.load(k); c != nil {
			return *c, nil
		}
		c, err := s.solveOp(ctx, k)
		if err != nil {
			return opCost{}, err
		}
		s.memo.store(k, c)
		s.solved.Add(1)
		return c, nil
	})
	if err != nil {
		return opCost{}, err
	}
	return c, nil
}

// opForKey builds the representative (pessimistic) operation of key k:
// the bucket's worst row and mux offset, with the mask's bits at their
// escalated calibrated levels.
func (s *Scheme) opForKey(k opKey) xpoint.ResetOp {
	cfg := s.arr.Config()
	muxW := cfg.MuxWidth()
	sections := s.levels.Sections
	row := int(k.section)*cfg.Size/sections + cfg.Size/sections - 1
	offset := (int(k.offB)+1)*muxW/offsetBuckets - 1

	var cols []int
	var volts []float64
	for b := 0; b < 8; b++ {
		if k.mask&(1<<b) == 0 {
			continue
		}
		cols = append(cols, cfg.ColumnOfBit(b, offset))
		volts = append(volts, s.levels.Escalated(int(k.section), b, int(k.esc), EscalationStep, EscalationCap))
	}
	return xpoint.ResetOp{Row: row, Cols: cols, Volts: volts}
}

// costFromResult prices a solved representative op.
func (s *Scheme) costFromResult(volts []float64, res *xpoint.ResetResult) opCost {
	// Cell-side energy: each cell integrates its own current over its own
	// completion time; the sneak surplus burns for the whole op.
	p := s.arr.Config().Params
	energy := 0.0
	sumCell := 0.0
	for i, v := range res.Veff {
		lat := p.ResetLatency(v)
		if math.IsInf(lat, 1) {
			lat = res.Latency
			if math.IsInf(lat, 1) {
				lat = p.ResetLatency(p.VwriteMin) // bounded stand-in for energy
			}
		}
		energy += volts[i] * res.Icell[i] * math.Min(lat, res.Latency)
		sumCell += res.Icell[i]
	}
	if sneak := res.Itotal - sumCell; sneak > 0 {
		lat := res.Latency
		if math.IsInf(lat, 1) {
			lat = p.ResetLatency(p.VwriteMin)
		}
		energy += sneak * volts[len(volts)-1] * lat
	}
	// A failed RESET (effective voltage below the write threshold) would
	// formally take forever; the chip's write-verify logic bounds the
	// pulse at the threshold latency and retries, so the op is priced at
	// that finite worst latency and flagged. Schemes with failures show
	// up as catastrophically slow rather than wedging the simulation.
	lat := res.Latency
	if math.IsInf(lat, 1) {
		lat = p.ResetLatency(p.VwriteMin)
	}
	return opCost{
		latency: lat,
		energy:  energy,
		itotal:  res.Itotal,
		vmin:    res.MinVeff(),
		failed:  res.Failed,
	}
}

// solveOp runs the array model for the representative operation of key k.
func (s *Scheme) solveOp(ctx context.Context, k opKey) (opCost, error) {
	_, stop := obs.StartSpan(ctx, "core.solve_op")
	defer stop()
	op := s.opForKey(k)
	res, err := s.arr.SimulateReset(op)
	if err != nil {
		return opCost{}, err
	}
	return s.costFromResult(op.Volts, res), nil
}

// MemoSize reports how many distinct operations the cost table holds
// (exported for the LUT ablation bench).
func (s *Scheme) MemoSize() int {
	n := 0
	s.memo.each(func(opKey, opCost) { n++ })
	return n
}
