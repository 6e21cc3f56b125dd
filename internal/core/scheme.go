package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"reramsim/internal/chargepump"
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
// Its Array, a DRVR level table and its cost table may be shared with
// other schemes of the same Solver. Scheme is safe for concurrent use.
type Scheme struct {
	name string
	opt  Options
	arr  *xpoint.Array
	cfg  xpoint.Config // arr's configuration, read by pricing in place
	muxW int           // cfg.MuxWidth()
	pump chargepump.Config

	levels *LevelTable

	// masks holds what the mask transforms make of each RESET byte
	// (maskTable); pricing a line reads one entry per written array.
	masks [maskValues]maskEntry

	// costs is the RESET cost memo, shared with every scheme of the same
	// Solver on this array configuration whose level table has the
	// same bits.
	costs *pricer
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

// NewScheme builds and calibrates a scheme on a fresh, unshared Solver.
// Construction solves a few dozen array operating points (DRVR/UDRVR
// calibration); reuse schemes across simulations.
func NewScheme(name string, opt Options) (*Scheme, error) {
	return new(Solver).NewScheme(name, opt)
}

// NewScheme builds and calibrates a scheme on the solver's shared Array,
// DRVR level table and cost table for its configuration.
func (sv *Solver) NewScheme(name string, opt Options) (*Scheme, error) {
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
	arr, err := sv.array(cfg)
	if err != nil {
		return nil, err
	}

	// The persistent solve cache (when installed) serves the calibrated
	// level tables and, through the cost table, the RESET cost memo.
	// Keys are content digests of what each product depends on, so a
	// cached table is exactly what the live calibration would compute —
	// loading it changes no downstream bit.
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
		levels, err = sv.drvrLevels(arr, sections, opt.MaxLevel)
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

	return &Scheme{
		name:   name,
		opt:    opt,
		arr:    arr,
		cfg:    arr.Config(),
		muxW:   arr.Config().MuxWidth(),
		pump:   pump,
		levels: levels,
		masks:  maskTable(opt),
		costs:  sv.pricerFor(arr, levels, cache),
	}, nil
}

// Name returns the scheme's display name.
func (s *Scheme) Name() string { return s.name }

// Options returns the scheme's configuration.
func (s *Scheme) Options() Options { return s.opt }

// Pump returns the charge pump this scheme requires.
func (s *Scheme) Pump() chargepump.Config { return s.pump }

// Levels returns the calibrated voltage-level table. Schemes of one
// Solver may share it, so callers must not modify it.
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
	return row % (s.cfg.Size / 4)
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
	return s.costWrite(ctx, row, offset, &lw, 0)
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
	return s.costWrite(ctx, row, offset, &lw, uint8(escalation))
}

// maskEntry is what a scheme's mask transforms make of one array's
// RESET byte.
type maskEntry struct {
	key     uint8 // op key mask: RESETs and dummies, canonicalised unless ExactMasks; 0 prices no op
	resets  uint8 // data RESETs, PR's paired ones included
	dummies uint8 // D-BL dummy-column RESETs
	prSets  uint8 // the compensating SETs PR pairs with its RESETs
}

// maskTable tabulates, for every RESET byte, write.PartitionReset (with
// PR), write.DummyBL (with D-BL) and canonicalMask (without ExactMasks)
// applied in that order, as pricing once applied them to each array.
// The table is exact for every (Reset, Set) pair: both transforms read
// only the RESET byte, and PR's SETs join the array's own by OR.
func maskTable(opt Options) (t [maskValues]maskEntry) {
	for r := range t {
		aw := write.ArrayWrite{Reset: uint8(r)}
		if opt.PR {
			aw = write.PartitionReset(aw)
		}
		key := aw.Reset
		var dummies uint8
		if opt.DBL {
			_, dummies = write.DummyBL(aw)
			key |= dummies
		}
		if !opt.ExactMasks {
			key = canonicalMask(key)
		}
		t[r] = maskEntry{
			key:     key,
			resets:  uint8(bits.OnesCount8(aw.Reset)),
			dummies: uint8(bits.OnesCount8(dummies)),
			prSets:  aw.Set,
		}
	}
	return t
}

func (s *Scheme) costWrite(ctx context.Context, row, offset int, lw *write.LineWrite, esc uint8) (LineCost, error) {
	row = s.RemapRow(row)
	if row < 0 || row >= s.cfg.Size {
		return LineCost{}, fmt.Errorf("core: row %d outside array", row)
	}
	if offset < 0 || offset >= s.muxW {
		return LineCost{}, fmt.Errorf("core: offset %d outside mux width %d", offset, s.muxW)
	}
	k := opKey{
		section: uint8(s.levels.SectionOf(row, s.cfg.Size)),
		offB:    uint8(offset * offsetBuckets / s.muxW),
		esc:     esc,
	}

	var out LineCost
	out.MinMargin = math.Inf(1)
	var maxResetLat float64
	hits := 0
	for _, aw := range &lw.Arrays {
		if aw == (write.ArrayWrite{}) {
			continue
		}
		e := &s.masks[aw.Reset]
		out.Resets += int(e.resets)
		out.Sets += bits.OnesCount8(aw.Set | e.prSets)
		out.DummyResets += int(e.dummies)
		if e.key == 0 {
			continue
		}
		k.mask = e.key
		c := s.costs.table.load(k)
		if c == nil {
			cold, err := s.costs.cold(ctx, k)
			if err != nil {
				return LineCost{}, err
			}
			c = &cold
		} else {
			hits++
		}
		if c.latency > maxResetLat {
			maxResetLat = c.latency
		}
		if m := c.vmin - s.cfg.Params.VwriteMin; m < out.MinMargin {
			out.MinMargin = m
		}
		out.Energy += c.energy
		if c.failed {
			out.Failed = true
		}
	}
	obsMemoHits.Add(uint64(hits))

	p := &s.cfg.Params
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

// MemoSize reports how many distinct operations the scheme's cost table
// holds, counting the ops every scheme sharing the table has priced
// (exported for the LUT ablation bench).
func (s *Scheme) MemoSize() int { return s.costs.size() }
