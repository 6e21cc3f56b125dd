package xpoint

import (
	"fmt"
	"math"
	"sync"

	"reramsim/internal/device"
)

// Array is a simulatable cross-point MAT. It caches tabulated device
// models for the hot ladder loops. An Array is safe for concurrent use:
// its configuration, tabulated models and prototype load table are
// immutable after New, and each solve checks a private solve context
// (ladders + scratch) out of an internal pool, so independent solves on
// one Array may run in parallel and steady-state solves do not allocate.
// The one thing solves share is a bounded memo of opening bit-line
// solves (blMemo); each vector in it is a function of its key alone, so
// a hit returns the bits the solve it skips would compute.
type Array struct {
	cfg Config

	cell *device.Tabulated // selected LRS cell under RESET
	half *device.Tabulated // background half-selected blend (LRSFrac LRS)

	rtrunk float64 // shared word-line trunk resistance (ohm)

	// protoLoads is the fully half-selected load row: every bit-line and
	// word-line ladder starts as this background with one or two nodes
	// overridden, so per-op setup is a copy() instead of Size setLoad
	// calls. Never mutated after New.
	protoLoads []*device.Tabulated

	blMemo blMemo

	ctxs sync.Pool // *solveCtx
}

// New builds an Array from cfg. It returns an error rather than panicking
// because configs are frequently user-assembled in sweeps.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Params
	vmax := p.Vrst * 1.7
	a := &Array{
		cfg:    cfg,
		cell:   device.Tabulate(p.LRSCell(), vmax, 4096),
		half:   device.Tabulate(p.BackgroundCell(cfg.LRSFrac), vmax, 4096),
		rtrunk: cfg.TrunkCoeff * float64(cfg.Size) * cfg.Rwire,
	}
	a.protoLoads = make([]*device.Tabulated, cfg.Size)
	for i := range a.protoLoads {
		a.protoLoads[i] = a.half
	}
	a.blMemo.slot = make(map[blKey]int, blMemoCap)
	a.ctxs.New = func() any { return &solveCtx{} }
	return a, nil
}

// MustNew is New for static configs known to be valid.
func MustNew(cfg Config) *Array {
	a, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("xpoint: %v", err))
	}
	return a
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// blMemoCap bounds the opening bit-line solves one Array keeps: 128
// vectors of Size float64s, 512 KiB at Size 512.
const blMemoCap = 128

// blKey names a piece's opening bit-line solve (see solvePiece). The
// voltages are keyed by their bits, so only an identical input hits.
type blKey struct {
	row       int
	va, vaMax uint64 // math.Float64bits of the piece and op maximum voltages
}

func newBLKey(row int, va, vaMax float64) blKey {
	return blKey{row: row, va: math.Float64bits(va), vaMax: math.Float64bits(vaMax)}
}

// blMemo is a bounded FIFO memo of opening bit-line solves: a map from
// key to ring slot, and a ring whose oldest slot (and its vector) is
// reused once all blMemoCap slots are filled. Vectors are copied in and
// out under the lock, so a hit allocates nothing and never aliases a
// ladder.
type blMemo struct {
	mu   sync.Mutex
	slot map[blKey]int
	keys [blMemoCap]blKey
	vecs [][]float64 // grows to blMemoCap, then slots are reused
	next int         // slot the next store fills (the oldest once full)
}

// load copies the vector stored under k into v and reports whether there
// was one.
func (m *blMemo) load(k blKey, v []float64) bool {
	m.mu.Lock()
	i, ok := m.slot[k]
	if ok {
		copy(v, m.vecs[i])
	}
	m.mu.Unlock()
	return ok
}

// store records v under k, evicting the oldest entry when full. A key a
// concurrent miss already stored keeps its (identical) vector.
func (m *blMemo) store(k blKey, v []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.slot[k]; ok {
		return
	}
	i := m.next
	if i == len(m.vecs) {
		m.vecs = append(m.vecs, make([]float64, len(v)))
	} else {
		delete(m.slot, m.keys[i])
	}
	copy(m.vecs[i], v)
	m.keys[i] = k
	m.slot[k] = i
	m.next = (i + 1) % blMemoCap
}
