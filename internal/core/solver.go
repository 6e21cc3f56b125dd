package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"reramsim/internal/obs"
	"reramsim/internal/par"
	"reramsim/internal/solvecache"
	"reramsim/internal/xpoint"
)

// Solver is the solver state that the schemes built through it share:
//
//   - one xpoint.Array per effective array configuration (after RBDL's
//     LRSFrac change);
//   - one DRVR level table per (configuration, sections, maximum level);
//   - one RESET cost table per (configuration, exact level-table bits),
//     with its in-flight solves, solve count and solve-cache dump.
//
// Each is a pure function of its key, so a scheme prices the same bits
// whether it shares them or not: DRVR+PR prices the ops DRVR already
// solved from DRVR's table, and UDRVR+PR, UDRVR-3.94's target and DRVR
// calibrate the DRVR levels once. experiments.Suite keeps one Solver
// for its lifetime; NewScheme and the package-level presets build on a
// fresh one. The zero Solver is ready to use, and a Solver is safe for
// concurrent use: concurrent first uses of one key share one build.
type Solver struct {
	arrays par.Memo[xpoint.Config, *xpoint.Array]
	drvr   par.Memo[drvrKey, *LevelTable]
	costs  par.Memo[costsKey, *pricer]
}

// drvrKey identifies one DRVR calibration.
type drvrKey struct {
	cfg      xpoint.Config
	sections int
	maxV     float64
}

// costsKey identifies one RESET cost table: an array configuration and
// the exact bits of the level table its ops are priced against
// (encodeLevels).
type costsKey struct {
	cfg    xpoint.Config
	levels string
}

// array returns the shared Array for cfg.
func (sv *Solver) array(cfg xpoint.Config) (*xpoint.Array, error) {
	return sv.arrays.Get(cfg, func() (*xpoint.Array, error) { return xpoint.New(cfg) })
}

// drvrLevels returns the shared DRVR level table of arr
// (CalibrateDRVRSections). Callers must not modify it.
func (sv *Solver) drvrLevels(arr *xpoint.Array, sections int, maxV float64) (*LevelTable, error) {
	return sv.drvr.Get(drvrKey{arr.Config(), sections, maxV}, func() (*LevelTable, error) {
		return CalibrateDRVRSections(arr, sections, maxV)
	})
}

// pricerFor returns the shared cost table of ops on arr under levels. A
// new table keeps cache (nil for none) and preloads its dump from it.
func (sv *Solver) pricerFor(arr *xpoint.Array, levels *LevelTable, cache *solvecache.Cache) *pricer {
	// The build cannot fail, so neither can Get.
	p, _ := sv.costs.Get(costsKey{arr.Config(), string(encodeLevels(levels))}, func() (*pricer, error) {
		return newPricer(arr, levels, cache), nil
	})
	return p
}

// Flush writes the dump of every cost table whose memo grew since its
// last write (see Scheme.FlushMemo), each table once however many
// schemes share it.
func (sv *Solver) Flush() {
	for _, p := range sv.costs.Values() {
		p.flush()
	}
}

// pricer is one RESET cost table: the memoized cost of every op priced
// on one Array against one level table. The table is the hot shared
// structure when simulations fan out: every write prices its ops here.
// Hits read the lock-free table; flight collapses concurrent cold misses
// of the same key onto one solve. A cost reads only arr and levels
// (opForKey, SimulateReset, costFromResult), so every scheme on the
// same configuration with the same level-table bits shares one pricer.
type pricer struct {
	arr    *xpoint.Array
	levels *LevelTable
	table  costTable
	flight par.Group[opKey, opCost]

	// Persistent solve cache (nil when disabled), captured when the
	// table is made; key addresses the table's dump and flushMu
	// serialises its rewrites. solved counts live solves stored in the
	// table; flushed is its value at the last dump written (guarded by
	// flushMu).
	cache   *solvecache.Cache
	key     string
	flushMu sync.Mutex
	solved  atomic.Uint64
	flushed uint64
}

func newPricer(arr *xpoint.Array, levels *LevelTable, cache *solvecache.Cache) *pricer {
	p := &pricer{
		arr:    arr,
		levels: levels,
		table:  costTable{sections: levels.Sections},
		cache:  cache,
	}
	if cache != nil {
		// A warm directory seeds the whole cost table here, so a repeat
		// sweep prices every op without touching the array solver.
		p.key = "memo-" + memoDigest(arr.Config(), levels)
		if payload, ok := cache.Get(p.key); ok {
			p.preload(payload)
		}
	}
	return p
}

// cold prices an op the table does not hold yet. Concurrent cold misses
// of the same key collapse onto one solve. A newly solved entry only
// bumps the solve count; flush writes the entries to the persistent
// cache, once per finished simulation, not once per solve.
func (p *pricer) cold(ctx context.Context, k opKey) (opCost, error) {
	obsMemoMisses.Inc()
	c, _, err := p.flight.Do(k, func() (opCost, error) {
		// Re-check under the flight: a solve that completed between our
		// miss and this call has already published the value.
		if c := p.table.load(k); c != nil {
			return *c, nil
		}
		c, err := p.solveOp(ctx, k)
		if err != nil {
			return opCost{}, err
		}
		p.table.store(k, c)
		p.solved.Add(1)
		return c, nil
	})
	return c, err
}

// opForKey builds the representative (pessimistic) operation of key k:
// the bucket's worst row and mux offset, with the mask's bits at their
// escalated calibrated levels.
func (p *pricer) opForKey(k opKey) xpoint.ResetOp {
	cfg := p.arr.Config()
	muxW := cfg.MuxWidth()
	sections := p.levels.Sections
	row := int(k.section)*cfg.Size/sections + cfg.Size/sections - 1
	offset := (int(k.offB)+1)*muxW/offsetBuckets - 1

	var cols []int
	var volts []float64
	for b := 0; b < 8; b++ {
		if k.mask&(1<<b) == 0 {
			continue
		}
		cols = append(cols, cfg.ColumnOfBit(b, offset))
		volts = append(volts, p.levels.Escalated(int(k.section), b, int(k.esc), EscalationStep, EscalationCap))
	}
	return xpoint.ResetOp{Row: row, Cols: cols, Volts: volts}
}

// costFromResult prices a solved representative op.
func (p *pricer) costFromResult(volts []float64, res *xpoint.ResetResult) opCost {
	// Cell-side energy: each cell integrates its own current over its own
	// completion time; the sneak surplus burns for the whole op.
	params := p.arr.Config().Params
	energy := 0.0
	sumCell := 0.0
	for i, v := range res.Veff {
		lat := params.ResetLatency(v)
		if math.IsInf(lat, 1) {
			lat = res.Latency
			if math.IsInf(lat, 1) {
				lat = params.ResetLatency(params.VwriteMin) // bounded stand-in for energy
			}
		}
		energy += volts[i] * res.Icell[i] * math.Min(lat, res.Latency)
		sumCell += res.Icell[i]
	}
	if sneak := res.Itotal - sumCell; sneak > 0 {
		lat := res.Latency
		if math.IsInf(lat, 1) {
			lat = params.ResetLatency(params.VwriteMin)
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
		lat = params.ResetLatency(params.VwriteMin)
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
func (p *pricer) solveOp(ctx context.Context, k opKey) (opCost, error) {
	_, stop := obs.StartSpan(ctx, "core.solve_op")
	defer stop()
	op := p.opForKey(k)
	res, err := p.arr.SimulateReset(op)
	if err != nil {
		return opCost{}, err
	}
	return p.costFromResult(op.Volts, res), nil
}

// size reports how many distinct ops the table holds.
func (p *pricer) size() int {
	n := 0
	p.table.each(func(opKey, opCost) { n++ })
	return n
}
