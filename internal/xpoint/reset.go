package xpoint

import (
	"fmt"
	"math"
	"sort"
)

// ResetOp is one concurrent (possibly multi-bit) RESET on a single
// word-line: the cells at (Row, Cols[i]) are reset with Volts[i] applied
// to their bit-lines. Cols must be strictly ascending; DRVR/UDRVR express
// themselves purely through Volts.
type ResetOp struct {
	Row   int
	Cols  []int
	Volts []float64
}

// Validate reports the first structural problem with the op.
func (op ResetOp) Validate(cfg Config) error {
	if op.Row < 0 || op.Row >= cfg.Size {
		return fmt.Errorf("xpoint: row %d outside array of size %d", op.Row, cfg.Size)
	}
	if len(op.Cols) == 0 {
		return fmt.Errorf("xpoint: reset op selects no columns")
	}
	if len(op.Volts) != len(op.Cols) {
		return fmt.Errorf("xpoint: %d columns but %d voltages", len(op.Cols), len(op.Volts))
	}
	if !sort.IntsAreSorted(op.Cols) {
		return fmt.Errorf("xpoint: columns not ascending")
	}
	for i, c := range op.Cols {
		if c < 0 || c >= cfg.Size {
			return fmt.Errorf("xpoint: column %d outside array", c)
		}
		if i > 0 && op.Cols[i-1] == c {
			return fmt.Errorf("xpoint: duplicate column %d", c)
		}
		if op.Volts[i] <= 0 {
			return fmt.Errorf("xpoint: non-positive RESET voltage %g", op.Volts[i])
		}
	}
	return nil
}

// ResetResult reports the electrical outcome of a ResetOp.
type ResetResult struct {
	Veff    []float64 // effective RESET voltage per selected cell
	Icell   []float64 // selected-cell current per selected cell (A)
	Itotal  float64   // total current returned through the row decoder (A)
	Latency float64   // op latency: slowest selected cell (s); +Inf on write failure
	Failed  bool      // any cell below the write-failure threshold
}

// MinVeff returns the smallest effective RESET voltage across the op's
// selected cells, or +Inf when none were selected. The write-verify
// margin is measured from this delivered worst case.
func (r *ResetResult) MinVeff() float64 {
	m := math.Inf(1)
	for _, v := range r.Veff {
		if v < m {
			m = v
		}
	}
	return m
}

// solver iteration limits. The outer loop updates the piece ground
// potentials (trunk coupling); the inner loop alternates the coupled
// bit-line/word-line ladders of one piece.
const (
	outerMaxIter = 60
	outerTol     = 1e-5
	innerMaxIter = 80
	innerTol     = 1e-6
	ladderIter   = 60
)

// solveCtx is the per-solve working set: the piece ladders and every
// scratch slice SimulateReset needs. Contexts live in the Array's pool so
// steady-state solves reuse them without allocating; ladders are
// reconfigured from the Array's immutable prototypes each op, which keeps
// results bit-identical to building them from scratch.
type solveCtx struct {
	bl []*ladder // one full-Size bit-line ladder per piece
	wl []*ladder // one word-line ladder per piece, re-spanned per op

	lo, hi     []int // piece column bounds
	tie0, tie1 []int // ground-tie node per piece (-1 = none/oracle-overridden)
	ipiece     []float64

	// Oracle decomposition scratch: one reusable 1-bit sub-op + result.
	subCols  [1]int
	subVolts [1]float64
	subRes   ResetResult
}

// grow ensures the context can hold an n-piece op on array a.
func (c *solveCtx) grow(a *Array, n int) {
	for len(c.bl) < n {
		c.bl = append(c.bl, newLadder(a.cfg.Size, a.cfg.Rwire))
		c.wl = append(c.wl, newLadderCap(a.cfg.Size, a.cfg.Size, a.cfg.Rwire))
	}
	if cap(c.lo) < n {
		c.lo = make([]int, n)
		c.hi = make([]int, n)
		c.tie0 = make([]int, n)
		c.tie1 = make([]int, n)
		c.ipiece = make([]float64, n)
	}
	c.lo, c.hi = c.lo[:n], c.hi[:n]
	c.tie0, c.tie1 = c.tie0[:n], c.tie1[:n]
	c.ipiece = c.ipiece[:n]
}

func (a *Array) getCtx(n int) *solveCtx {
	c := a.ctxs.Get().(*solveCtx)
	c.grow(a, n)
	return c
}

// pooledPieceCap bounds the piece capacity a context may keep while
// pooled. grow only ever extends a context upward, so without a bound one
// wide op (a degraded-mux escalation, a wide oracle sweep) would leave
// every pooled context pinning max-size ladders for the process lifetime
// of a daemon. len(c.bl) is the historical high-water mark — contexts
// beyond the bound are dropped for the GC instead of pooled.
const pooledPieceCap = 16

func (a *Array) putCtx(c *solveCtx) {
	if len(c.bl) > pooledPieceCap {
		return
	}
	a.ctxs.Put(c)
}

// growFloats returns s resized to n elements, reusing its backing array
// when it is large enough.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// SimulateReset solves the array model for op and derives per-cell
// effective voltages, currents and the op latency.
func (a *Array) SimulateReset(op ResetOp) (*ResetResult, error) {
	if err := op.Validate(a.cfg); err != nil {
		return nil, err
	}
	res := &ResetResult{}
	a.simulateInto(op, res)
	return res, nil
}

// SimulateResetInto is SimulateReset writing into a caller-owned result,
// reusing its slices when they have capacity. Steady-state use (one
// long-lived ResetResult per goroutine) does not allocate.
func (a *Array) SimulateResetInto(op ResetOp, res *ResetResult) error {
	if err := op.Validate(a.cfg); err != nil {
		return err
	}
	a.simulateInto(op, res)
	return nil
}

// simulateInto runs a validated op. It is the allocation-free hot path
// behind both public entry points.
func (a *Array) simulateInto(op ResetOp, res *ResetResult) {
	cfg := a.cfg
	n := len(op.Cols)

	// Level-shifted V/2 biasing: with DRVR/UDRVR boosting some bit-lines
	// above the nominal Vrst, the classic Vrst/2 half bias would push the
	// half-selected cells on those bit-lines past the selector threshold.
	// The chip therefore references the unselected word-line bias to the
	// pump output: unselected WLs sit at maxLevel - Vrst/2 and unselected
	// BLs at Vrst/2, bounding every half-selected cell's stress at Vrst/2.
	// At the nominal level this reduces to the paper's Fig. 2 scheme.
	vhalfBL := cfg.Params.Vrst / 2 // unselected bit-line bias
	vaMax := 0.0
	for _, v := range op.Volts {
		if v > vaMax {
			vaMax = v
		}
	}
	vhalfWL := vaMax - cfg.Params.Vrst/2 // unselected word-line bias

	// Oracle taps partition the array ideally: concurrent RESETs are
	// electrically independent, so a multi-bit op decomposes into 1-bit
	// solves. (The trunk feedback below models the single shared decoder
	// return, which the oracle's extra grounds bypass.)
	if n > 1 && (cfg.OracleWL > 0 || cfg.OracleBL > 0) {
		a.simulateOracleInto(op, res)
		return
	}

	ctx := a.getCtx(n)
	defer a.putCtx(ctx)
	lo, hi := ctx.lo, ctx.hi

	// Piece boundaries: midpoints between consecutive selected columns.
	for k := range op.Cols {
		if k == 0 {
			lo[k] = 0
		} else {
			lo[k] = (op.Cols[k-1] + op.Cols[k] + 1) / 2
		}
	}
	for k := range op.Cols {
		if k == n-1 {
			hi[k] = cfg.Size
		} else {
			hi[k] = lo[k+1]
		}
	}

	// DSGB provides a second ground: the decoder return halves (two
	// parallel contacts) and pieces nearer the right edge ground
	// rightward. The coalescence trunk does NOT halve: each end's trunk
	// metal carries its share of the total current over the same
	// per-segment resistance, which is why D-BL's 8-bit RESETs still pay
	// the large-current penalty even with double-sided grounds (§III-B).
	rdec, rtrunk := cfg.Rdec, a.rtrunk
	if cfg.DSGB {
		rdec /= 2
	}
	// Reference current of the crowding factor: a full data-width RESET
	// at compliance current.
	trunkRef := float64(cfg.DataWidth) * cfg.Params.Ion

	res.Veff = growFloats(res.Veff, n)
	res.Icell = growFloats(res.Icell, n)

	// All per-piece configuration that does not depend on the evolving
	// ground potential is done once here, not per outer iteration: the
	// bit-line is the prototype background with the driver taps and the
	// selected row overridden, and the word-line keeps static loads and
	// tie/tap conductances while the outer loop only rewrites the tie
	// potentials in place.
	for k := 0; k < n; k++ {
		a.resetBL(ctx.bl[k], op.Volts[k], op.Row, vhalfWL, vaMax)
		ctx.tie0[k], ctx.tie1[k] = a.configureWL(ctx.wl[k], lo[k], hi[k], op, k, n, vhalfBL, vaMax)
		ctx.ipiece[k] = 0
	}

	var work solveWork
	itotal := 0.0
	outer := 0
	for ; outer < outerMaxIter; outer++ {
		prevTotal := itotal
		itotal = 0
		for k := 0; k < n; k++ {
			// Ground potential seen by this piece: the decoder drop from
			// the whole op plus the trunk drop from the current of the
			// *other* pieces coalescing on the shared word-line. For a
			// 1-bit RESET the trunk term vanishes and the model reduces
			// to the plain coupled ladders validated against the 2-D
			// solver.
			//
			// The trunk term is superlinear (scaled by the op's total
			// current against the full 8-bit reference): coalescence is
			// benign around the 3-4-bit sweet spot and punishing at
			// D-BL's forced 8-bit RESETs, which is the paper's Fig. 11a
			// observation and the reason PR beats D-BL.
			iothers := prevTotal - ctx.ipiece[k]
			if iothers < 0 {
				iothers = 0
			}
			crowding := prevTotal / trunkRef
			vg := rdec*prevTotal + rtrunk*iothers*crowding

			wlk := ctx.wl[k]
			if t := ctx.tie0[k]; t >= 0 {
				wlk.srcV[t] = vg
			}
			if t := ctx.tie1[k]; t >= 0 {
				wlk.srcV[t] = vg
			}
			iv, ic := a.solvePiece(ctx.bl[k], wlk, op, k, lo[k], vaMax, outer == 0, &work)
			res.Veff[k], res.Icell[k] = iv, ic

			// Piece ground current: everything the local ladder hands to
			// its ground tie(s).
			ctx.ipiece[k] = pieceGroundCurrent(wlk)
			itotal += ctx.ipiece[k]
		}
		if math.Abs(itotal-prevTotal) < outerTol*(1e-6+math.Abs(itotal)) {
			break
		}
	}
	if outer == outerMaxIter {
		work.outerCapped++
	}

	res.Itotal = itotal
	res.Latency = 0
	res.Failed = false
	for _, v := range res.Veff {
		lat := cfg.Params.ResetLatency(v)
		if math.IsInf(lat, 1) {
			res.Failed = true
		}
		if lat > res.Latency {
			res.Latency = lat
		}
	}
	recordSolve(op, res, work)
}

// solveWork is the ladder work one op's solve did: the sweeps it ran and
// the opening bit-line solves the Array's memo served instead. It also
// counts every loop that stopped without converging: the outer loop at
// outerMaxIter, inner alternations at innerMaxIter or at the stagnation
// cut-off, and ladder solves at ladderIter with the residual still above
// tolerance.
type solveWork struct {
	sweeps, memoHits int

	outerCapped, innerCapped, innerStagnated, ladderCapped int
}

// solve converges one piece ladder, counting its sweeps and whether it
// ran out of them.
func (w *solveWork) solve(l *ladder) {
	const tol = innerTol / 4
	res, n := l.solve(tol, ladderIter)
	w.sweeps += n
	if res >= tol {
		w.ladderCapped++
	}
}

// simulateOracleInto evaluates a multi-bit RESET on an oracle-tapped
// array as independent 1-bit operations, reusing one scratch sub-op and
// sub-result across columns (the outer op was already validated).
func (a *Array) simulateOracleInto(op ResetOp, out *ResetResult) {
	n := len(op.Cols)
	out.Veff = growFloats(out.Veff, n)
	out.Icell = growFloats(out.Icell, n)
	out.Itotal, out.Latency, out.Failed = 0, 0, false

	ctx := a.getCtx(1)
	defer a.putCtx(ctx)
	sub := ResetOp{Row: op.Row, Cols: ctx.subCols[:1], Volts: ctx.subVolts[:1]}
	for i := 0; i < n; i++ {
		sub.Cols[0] = op.Cols[i]
		sub.Volts[0] = op.Volts[i]
		a.simulateInto(sub, &ctx.subRes)
		out.Veff[i] = ctx.subRes.Veff[0]
		out.Icell[i] = ctx.subRes.Icell[0]
		out.Itotal += ctx.subRes.Itotal
		if ctx.subRes.Latency > out.Latency {
			out.Latency = ctx.subRes.Latency
		}
		out.Failed = out.Failed || ctx.subRes.Failed
	}
}

// resetBL reconfigures a pooled full-Size ladder into the selected
// bit-line: write driver(s), oracle taps, and the prototype half-selected
// background with the selected row's load detached (it is (re)attached
// inside solvePiece because its far potential is the word-line node).
func (a *Array) resetBL(l *ladder, va float64, row int, vhalf, vaMax float64) {
	cfg := a.cfg
	l.resize(cfg.Size)
	for i := range l.srcG {
		l.srcG[i] = 0
		l.srcV[i] = 0
	}
	l.setSource(0, va, cfg.Rdrv)
	if cfg.DSWD {
		l.setSource(cfg.Size-1, va, cfg.Rdrv)
	}
	if m := cfg.OracleBL; m > 0 {
		for i := 0; i < cfg.Size; i += m {
			l.setSource(i, va, cfg.Rdrv)
		}
	}
	copy(l.loads, a.protoLoads)
	l.loads[row] = nil
	for i := range l.loadU {
		l.loadU[i] = vhalf
	}
	l.loadU[row] = 0
	l.setBounds(0, vaMax)
	l.init(va)
}

// configureWL builds the local word-line ladder of piece k: a stiff tie
// to the piece's ground potential, half-selected injections from the
// background, oracle ground taps, and the selected cell load (attached in
// solvePiece). It returns the tie node indices whose potential the outer
// loop must track (-1 = unused); ties that coincide with an oracle tap
// are reported as unused because the tap's hard ground overrides them.
func (a *Array) configureWL(l *ladder, lo, hi int, op ResetOp, k, n int, vhalf, vaMax float64) (tie0, tie1 int) {
	cfg := a.cfg
	l.resize(hi - lo)
	l.reset()
	tie0, tie1 = -1, -1
	switch {
	case cfg.DSGB && n == 1:
		// One piece spanning the whole word-line, grounded at both ends.
		tie0, tie1 = 0, hi-lo-1
		l.setSource(tie0, 0, 1e-2)
		l.setSource(tie1, 0, 1e-2)
	case cfg.DSGB:
		// Outer pieces reach their physical decoder; inner pieces ground
		// toward the nearer edge.
		if k == 0 {
			tie0 = 0
		} else if k == n-1 {
			tie0 = hi - lo - 1
		} else if (lo+hi)/2 > cfg.Size/2 {
			tie0 = hi - lo - 1
		} else {
			tie0 = 0
		}
		l.setSource(tie0, 0, 1e-2)
	default:
		tie0 = 0
		l.setSource(tie0, 0, 1e-2)
	}
	if m := cfg.OracleWL; m > 0 {
		for c := 0; c < cfg.Size; c += m {
			if c >= lo && c < hi {
				l.setSource(c-lo, 0, cfg.Rdec)
				if c-lo == tie0 {
					tie0 = -1
				}
				if c-lo == tie1 {
					tie1 = -1
				}
			}
		}
	}
	for c := lo; c < hi; c++ {
		if c != op.Cols[k] {
			l.setLoad(c-lo, a.half, vhalf)
		}
	}
	l.setBounds(0, vaMax)
	l.init(0)
	return tie0, tie1
}

// solvePiece alternates the piece's coupled bit-line and word-line
// ladders until the selected cell's terminal voltages settle, returning
// the cell's effective voltage and current and adding its ladder work to
// w.
//
// On the op's first outer iteration (opening), the first bit-line solve
// is a function of (row, va, vaMax) alone: resetBL has just rewritten
// every bit-line input (driver taps at va, background loads toward
// vaMax - Vrst/2, bounds [0, vaMax], seed va) and the selected cell sees
// the word-line seed of exactly 0 V. That solve is served from, or
// stored to, the Array's memo. bHat is read before it, as the seed va.
func (a *Array) solvePiece(bl, wl *ladder, op ResetOp, k, lo int, vaMax float64, opening bool, w *solveWork) (veff, icell float64) {
	row := op.Row
	sel := op.Cols[k] - lo
	// The exchanged terminal potentials are under-relaxed with adaptive
	// damping: the cell's compliance region has a sharp conductance, and
	// a raw alternation between the two ladders can limit-cycle.
	wHat, bHat := wl.v[sel], bl.v[row]
	relax := 1.0
	prevDelta := math.Inf(1)
	best := math.Inf(1)
	sinceBest := 0
	inner := 0
	for ; inner < innerMaxIter; inner++ {
		bl.setLoad(row, a.cell, wHat)
		if inner == 0 && opening {
			key := newBLKey(row, op.Volts[k], vaMax)
			if a.blMemo.load(key, bl.v) {
				w.memoHits++
			} else {
				w.solve(bl)
				a.blMemo.store(key, bl.v)
			}
		} else {
			w.solve(bl)
		}

		wl.setLoad(sel, a.cell, bHat)
		w.solve(wl)

		dw := wl.v[sel] - wHat
		db := bl.v[row] - bHat
		delta := math.Max(math.Abs(dw), math.Abs(db))
		if delta < innerTol {
			wHat, bHat = wl.v[sel], bl.v[row]
			break
		}
		if delta > prevDelta && relax > 0.15 {
			relax *= 0.6
		}
		prevDelta = delta
		// Stagnation cut-off: operating points pinned at the switching
		// knee (failing writes) limit-cycle within a few millivolts; the
		// answer is already as good as the model resolves, so stop
		// burning sweeps on them.
		if delta < best*0.7 {
			best = delta
			sinceBest = 0
		} else if sinceBest++; sinceBest > 10 {
			wHat, bHat = wl.v[sel], bl.v[row]
			w.innerStagnated++
			break
		}
		wHat += relax * dw
		bHat += relax * db
	}
	if inner == innerMaxIter {
		w.innerCapped++
	}
	veff = bHat - wHat
	icell = a.cell.Current(veff)
	return veff, icell
}

// pieceGroundCurrent sums the current absorbed by the piece's ground ties
// (the stiff Vg tie plus any oracle taps).
func pieceGroundCurrent(l *ladder) float64 {
	total := 0.0
	for i := 0; i < l.n; i++ {
		if c := l.sourceCurrent(i); c < 0 {
			total -= c
		}
	}
	return total
}
