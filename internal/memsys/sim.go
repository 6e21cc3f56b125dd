package memsys

import (
	"context"
	"fmt"
	"math"
	"sync"

	"reramsim/internal/cache"
	"reramsim/internal/core"
	"reramsim/internal/cpu"
	"reramsim/internal/ecp"
	"reramsim/internal/energy"
	"reramsim/internal/fault"
	"reramsim/internal/obs"
	"reramsim/internal/trace"
	"reramsim/internal/wear"
	"reramsim/internal/write"
)

// Result reports one simulation run.
type Result struct {
	Workload string
	Scheme   string

	Instructions uint64
	Seconds      float64
	IPC          float64 // aggregate across cores

	Reads, Writes  uint64
	AvgReadLatency float64 // seconds, arrival to data
	AvgWriteWait   float64 // seconds, arrival to service completion
	WriteBursts    uint64
	CellsWritten   uint64
	WriteFailures  uint64

	Energy EnergyBreakdown

	// Reliability reports the write-verify/fault-injection outcome; nil
	// when the run used the "none" fault profile (keeping fault-free
	// Result JSON identical to the plain simulator's).
	Reliability *Reliability `json:",omitempty"`
}

// EnergyBreakdown splits the main-memory energy (J).
type EnergyBreakdown struct {
	Read    float64
	Write   float64
	Leakage float64
	Pump    float64 // pump leakage (dynamic pump energy is inside Write)
}

// Total sums the components.
func (e EnergyBreakdown) Total() float64 { return e.Read + e.Write + e.Leakage + e.Pump }

// event kinds of the discrete-event loop.
type eventKind uint8

const (
	evCoreAccess eventKind = iota
	evReadDone
	evBankFree
)

// An event's key packs its sequence number, kind and core into one word,
// the sequence number in the high bits: every event gets a fresh one, so
// ordering by (t, key) orders by (t, seq). An evBankFree names no core
// and no bank: its handler only tries to issue more work.
type event struct {
	t   float64
	key uint64
}

// The key's layout: core in the low evCoreBits bits (Validate caps
// Cores at 1<<evCoreBits), kind above it, and the sequence number in the
// remaining 42 bits, 4.4·10^12 events.
const (
	evCoreBits = 20
	evKindBits = 2
	evSeqShift = evCoreBits + evKindBits
)

func (e event) kind() eventKind { return eventKind(e.key >> evCoreBits & (1<<evKindBits - 1)) }
func (e event) core() int       { return int(e.key & (1<<evCoreBits - 1)) }

// before orders events by (t, key).
func (e event) before(o event) bool { return e.t < o.t || e.t == o.t && e.key < o.key }

// eventHeap is a binary min-heap of events ordered by (t, key). Every
// event carries a unique key, so the order is total and the pop sequence
// is fixed whatever the heap's layout. push and pop move a hole where
// the standard library's heap package swaps, which leaves the same
// layout, without boxing each event in an interface.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !e.before(q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = e
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n] // sifts down from the root
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].before(q[j]) {
			j = r
		}
		if !q[j].before(last) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = last
	*h = q[:n]
	return top
}

type readReq struct {
	core    int
	bank    int
	arrival float64
}

type writeReq struct {
	bank    int
	rank    int
	arrival float64
	cost    core.LineCost

	// Retry context, populated only under fault injection: re-pricing an
	// escalated attempt needs the original op, and degradation needs the
	// physical line.
	row    int
	offset int
	phys   uint64
	lw     write.LineWrite
}

type coreState struct {
	src     source
	hier    *cache.Hierarchy
	cpu     *cpu.Core
	pending access
	issued  int
	instr   uint64
	done    bool

	// blockedRead marks a core stalled by its instruction window or MSHR
	// budget; it resumes when an outstanding read returns.
	blockedRead bool

	// A request turned away by a full controller queue parks here, held
	// by value, until admitWaiters moves it in.
	waitRead     readReq
	waitWrite    writeReq
	hasWaitRead  bool
	hasWaitWrite bool
}

// sim bundles the mutable simulation state.
type sim struct {
	// ctx stops the event loop and carries the memsys.sim span that
	// cold solves' spans nest under.
	ctx    context.Context
	cfg    Config
	scheme *core.Scheme

	events eventHeap
	seq    uint64

	cores []coreState

	readQ  []readReq
	writeQ []writeReq
	burst  bool

	// parked counts the requests that full queues turned away and that
	// wait at their cores.
	parked int

	bankFreeAt []float64
	pumpFreeAt []float64

	// writeReadyAt is a lower bound on the earliest time any queued
	// write finds its bank and its rank's pump free; issueWrites skips
	// its scan before then. Free times only move forward, so the
	// minimum a scan reads stays a bound until a write is appended.
	writeReadyAt float64

	// The geometry lines map onto: cfg.Banks() and the array's size
	// and mux width.
	banks, arrSize, muxW uint64

	leveler    *wear.SecurityRefresh
	shifter    wear.RowShifter
	lineWrites map[uint64]uint64

	// Fault-injection state; all nil with the "none" profile.
	inj      *fault.Injector
	ecpLines map[uint64]*ecp.Line
	retire   *wear.RetirementMap

	res        Result
	readLatSum float64
	wrWaitSum  float64
	endTime    float64
}

// obsSims counts completed simulations: the one memsys series, since
// what a simulation did is its Result, not a metric. Concurrent callers
// that share one run (a suite's singleflight, reramd's dedup) add one.
var obsSims = obs.C("memsys.sims")

// Simulate runs workload bench against scheme s under cfg and returns
// aggregate performance and energy.
func Simulate(s *core.Scheme, bench trace.Benchmark, cfg Config) (*Result, error) {
	return SimulateContext(context.Background(), s, bench, cfg)
}

// SimulateContext is Simulate stopped by ctx: the event loop checks ctx
// before its first event and every stopPollEvery events after, and a
// stopped run returns no result and an error wrapping
// context.Cause(ctx). The checks never influence the result of a run
// that completes. Each core draws its accesses from its generator as
// it issues them.
func SimulateContext(ctx context.Context, s *core.Scheme, bench trace.Benchmark, cfg Config) (*Result, error) {
	ctx, stop := simSpan(ctx, s, bench.Name)
	defer stop()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gens, err := newGenerators(bench, cfg)
	if err != nil {
		return nil, err
	}
	srcs := make([]source, len(gens))
	for i, g := range gens {
		srcs[i].gen = g
	}
	return simulate(ctx, s, bench.Name, cfg, srcs)
}

// SimulateTrace is SimulateContext replaying a recorded trace instead of
// drawing the stream: each core takes its accesses from t, which must
// have been recorded under cfg's Cores, Seed and AccessesPerCore. It
// returns the Result SimulateContext returns for t's workload, bit for
// bit.
func SimulateTrace(ctx context.Context, s *core.Scheme, t *Trace, cfg Config) (*Result, error) {
	ctx, stop := simSpan(ctx, s, t.workload)
	defer stop()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := t.match(cfg); err != nil {
		return nil, err
	}
	srcs := make([]source, len(t.cores))
	for i := range srcs {
		srcs[i].rec = &t.cores[i]
	}
	return simulate(ctx, s, t.workload, cfg, srcs)
}

// simSpan opens the memsys.sim span cold solves nest under, when spans
// are on.
func simSpan(ctx context.Context, s *core.Scheme, workload string) (context.Context, func()) {
	if !obs.SpansEnabled() {
		return ctx, func() {}
	}
	return obs.StartSpan(ctx, "memsys.sim:"+s.Name()+"/"+workload)
}

// lineWritesPool recycles the per-simulation write counts: a cleared
// map keeps its buckets, so a simulation after the first does not regrow
// one. The map is only looked up, never iterated, so its history cannot
// show in a result.
var lineWritesPool = sync.Pool{New: func() any { return make(map[uint64]uint64) }}

// simulate runs the event loop over the cores' access sources.
func simulate(ctx context.Context, s *core.Scheme, workload string, cfg Config, srcs []source) (*Result, error) {
	arr := s.Array().Config()
	lineWrites := lineWritesPool.Get().(map[uint64]uint64)
	defer func() {
		clear(lineWrites)
		lineWritesPool.Put(lineWrites)
	}()
	sm := &sim{
		ctx:        ctx,
		cfg:        cfg,
		scheme:     s,
		cores:      make([]coreState, cfg.Cores),
		readQ:      make([]readReq, 0, cfg.ReadQueue),
		writeQ:     make([]writeReq, 0, cfg.WriteQueue),
		bankFreeAt: make([]float64, cfg.Banks()),
		pumpFreeAt: make([]float64, cfg.Ranks),
		banks:      uint64(cfg.Banks()),
		arrSize:    uint64(arr.Size),
		muxW:       uint64(arr.MuxWidth()),
		lineWrites: lineWrites,
		shifter:    wear.NewRowShifter(),
	}
	sm.res.Workload = workload
	sm.res.Scheme = s.Name()
	if err := sm.initFaults(); err != nil {
		return nil, err
	}

	var err error
	if s.WearLevelingCompatible() {
		sm.leveler, err = wear.NewSecurityRefresh(1<<30, 64, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	coreCfg := cpu.Config{BaseIPC: cfg.CoreIPC, Window: cfg.Window, MSHRs: cfg.MSHRs, FreqHz: cfg.FreqHz}
	for i := range sm.cores {
		sm.cores[i].src = srcs[i]
		sm.cores[i].cpu, err = cpu.New(coreCfg)
		if err != nil {
			return nil, err
		}
		if cfg.UseCaches {
			h, err := cache.NewHierarchy()
			if err != nil {
				return nil, err
			}
			sm.cores[i].hier = h
		}
		sm.scheduleNextAccess(i, 0)
	}

	if err := sm.run(); err != nil {
		return nil, err
	}
	sm.finalize()
	obsSims.Inc()
	return &sm.res, nil
}

// push schedules an event of the given kind for core at time t, after
// every event already scheduled for t.
func (s *sim) push(t float64, kind eventKind, core int) {
	s.seq++
	s.events.push(event{t: t, key: s.seq<<evSeqShift | uint64(kind)<<evCoreBits | uint64(core)})
}

// scheduleNextAccess takes core i's next access from its source and
// schedules its arrival after the compute gap. Once the access budget is
// exhausted the core retires.
func (s *sim) scheduleNextAccess(i int, from float64) {
	c := &s.cores[i]
	if c.issued >= s.cfg.AccessesPerCore {
		c.done = true
		return
	}
	c.issued++
	c.src.fill(&c.pending)
	c.instr += c.pending.gap
	dt := c.cpu.Advance(c.pending.gap)
	s.push(from+dt, evCoreAccess, i)
}

// physLine resolves a logical line to the physical line its state is
// keyed on, applying wear leveling (a write advances it) and line
// retirement.
func (s *sim) physLine(line uint64, isWrite bool) uint64 {
	phys := line
	if s.leveler != nil {
		if isWrite {
			phys = s.leveler.OnWrite(line)
		} else {
			phys = s.leveler.Map(line)
		}
	}
	if s.retire != nil {
		// Chase the retirement chain: a retired line redirects to its
		// spare, which may itself have retired later.
		for {
			sp, ok := s.retire.Lookup(phys)
			if !ok {
				break
			}
			phys = sp
		}
	}
	return phys
}

// bankOf returns the bank a physical line lives in.
func (s *sim) bankOf(phys uint64) int { return int(phys % s.banks) }

// mapWrite places a written logical line: its physical line and that
// line's (bank, rank, row, column-mux offset), the offset shifted by
// the line's write count (intra-line wear leveling).
func (s *sim) mapWrite(line uint64) (bank, rank, row, offset int, phys uint64) {
	phys = s.physLine(line, true)
	bank = s.bankOf(phys)
	rank = bank / s.cfg.BanksPerRank
	row = int((phys / s.banks) % s.arrSize)
	base := int((phys / (s.banks * s.arrSize)) % s.muxW)
	n := s.lineWrites[phys]
	s.lineWrites[phys] = n + 1
	return bank, rank, row, s.shifter.Offset(base, n), phys
}

// stopPollEvery spaces the event loop's context checks, so a stop
// signal costs one branch per event and a check only every few
// thousand events.
const stopPollEvery = 4096

func (s *sim) run() error {
	for processed := 0; len(s.events) > 0; processed++ {
		if processed%stopPollEvery == 0 && s.ctx.Err() != nil {
			return fmt.Errorf("memsys: stopped after %d events: %w", processed, context.Cause(s.ctx))
		}
		e := s.events.pop()
		if e.t > s.endTime {
			s.endTime = e.t
		}
		switch e.kind() {
		case evCoreAccess:
			if err := s.onCoreAccess(e.t, e.core()); err != nil {
				return err
			}
		case evReadDone:
			s.onReadDone(e.t, e.core())
		case evBankFree:
			// State already advanced; just try to issue more work.
		}
		if err := s.tryIssue(e.t); err != nil {
			return err
		}
	}
	return nil
}

// onCoreAccess dispatches core i's pending access into the controller.
func (s *sim) onCoreAccess(now float64, i int) error {
	c := &s.cores[i]
	if c.hier != nil {
		// By value: dispatching can take the core's next access into
		// c.pending before the writeback it triggers is priced.
		return s.dispatchCached(now, i, c.pending)
	}
	a := &c.pending
	if a.kind == trace.Read {
		s.issueCoreRead(now, i, a.line)
		return nil
	}
	return s.submitWrite(now, i, a.line, &a.lw)
}

// issueCoreRead sends a demand read into the controller and lets the core
// run ahead in the shadow of the miss when its window and MSHRs allow
// (the interval model's memory-level parallelism).
func (s *sim) issueCoreRead(now float64, i int, line uint64) {
	c := &s.cores[i]
	queued := s.submitRead(now, i, line)
	c.cpu.IssueRead()
	if queued && !c.cpu.Blocked() {
		s.scheduleNextAccess(i, now)
		return
	}
	c.blockedRead = true
}

// onReadDone retires the oldest outstanding miss of core i and resumes it
// if that was what stalled it.
func (s *sim) onReadDone(now float64, i int) {
	c := &s.cores[i]
	c.cpu.CompleteOldest()
	if c.blockedRead && !c.cpu.Blocked() && !c.hasWaitRead {
		c.blockedRead = false
		s.scheduleNextAccess(i, now)
	}
}

// dispatchCached runs the access through the core's cache hierarchy; only
// misses and dirty writebacks reach the memory controller. A writeback
// is priced from the vectors of the access that triggered it: the
// access's own for a write, none for a read, which carries no data.
func (s *sim) dispatchCached(now float64, i int, a access) error {
	c := &s.cores[i]
	lat, mem := c.hier.Access(a.line, a.kind == trace.Write)
	t := now + float64(lat)/s.cfg.FreqHz
	demandRead := false
	for _, m := range mem {
		if m.IsWrite {
			if a.kind == trace.Read {
				a.lw = write.LineWrite{}
			}
			if err := s.submitWrite(t, i, m.Line, &a.lw); err != nil {
				return err
			}
		} else {
			// The demand miss blocks the core whether the original access
			// was a load or a store (write-allocate fetches the line).
			s.issueCoreRead(t, i, m.Line)
			demandRead = true
		}
	}
	if !demandRead {
		s.scheduleNextAccess(i, t)
	}
	return nil
}

// submitRead enqueues a read, reporting whether it entered the queue
// (false: the controller queue is full and the request parks at the core).
func (s *sim) submitRead(now float64, i int, line uint64) bool {
	req := readReq{core: i, bank: s.bankOf(s.physLine(line, false)), arrival: now}
	if len(s.readQ) >= s.cfg.ReadQueue {
		c := &s.cores[i]
		if !c.hasWaitRead {
			s.parked++
		}
		c.waitRead, c.hasWaitRead = req, true
		return false
	}
	s.readQ = append(s.readQ, req)
	return true
}

// submitWrite prices core i's write of Flip-N-Write vectors lw to a
// logical line and enqueues it, or parks it at the core when the write
// queue is full.
func (s *sim) submitWrite(now float64, i int, line uint64, lw *write.LineWrite) error {
	bank, rank, row, offset, phys := s.mapWrite(line)
	cost, err := s.scheme.CostWrite(s.ctx, row, offset, *lw)
	if err != nil {
		return err
	}
	req := writeReq{bank: bank, rank: rank, arrival: now, cost: cost}
	if s.inj != nil {
		req.row, req.offset, req.phys, req.lw = row, offset, phys, *lw
	}
	if len(s.writeQ) >= s.cfg.WriteQueue {
		c := &s.cores[i]
		if !c.hasWaitWrite {
			s.parked++
		}
		c.waitWrite, c.hasWaitWrite = req, true
		return nil
	}
	s.enqueueWrite(&req)
	s.scheduleNextAccess(i, now) // posted write: the core moves on
	return nil
}

// enqueueWrite appends req to the write queue; the new entry may issue
// before writeReadyAt, so the bound resets.
func (s *sim) enqueueWrite(req *writeReq) {
	s.writeQ = append(s.writeQ, *req)
	s.writeReadyAt = 0
}

// tryIssue advances the controller: reads first, writes when there are no
// reads, full write-queue bursts that block reads until the queue drains.
func (s *sim) tryIssue(now float64) error {
	if len(s.writeQ) >= s.cfg.WriteQueue && !s.burst {
		s.burst = true
		s.res.WriteBursts++
	}
	for {
		progress := false
		if s.burst || len(s.readQ) == 0 || s.cfg.EagerWrites {
			wrote, err := s.issueWrites(now)
			if err != nil {
				return err
			}
			progress = wrote || progress
		}
		if !s.burst {
			progress = s.issueReads(now) || progress
		}
		if s.burst && len(s.writeQ) == 0 {
			s.burst = false
			progress = true
		}
		if !progress {
			break
		}
	}
	s.admitWaiters(now)
	return nil
}

func (s *sim) issueReads(now float64) bool {
	issued := false
	for qi := 0; qi < len(s.readQ); {
		req := &s.readQ[qi]
		if s.bankFreeAt[req.bank] > now {
			qi++
			continue
		}
		done := now + s.cfg.ReadBankTime
		s.bankFreeAt[req.bank] = done
		s.push(done, evBankFree, 0)
		complete := now + s.cfg.MCOverhead + s.cfg.ReadBankTime + s.cfg.BusTime
		s.push(complete, evReadDone, req.core)

		s.res.Reads++
		s.readLatSum += complete - req.arrival
		s.res.Energy.Read += energy.ReadEnergyPerLine

		s.readQ = append(s.readQ[:qi], s.readQ[qi+1:]...)
		issued = true
	}
	return issued
}

func (s *sim) issueWrites(now float64) (bool, error) {
	if now < s.writeReadyAt {
		return false, nil
	}
	issued := false
	readyAt := math.Inf(1)
	for qi := 0; qi < len(s.writeQ); {
		req := &s.writeQ[qi]
		if free := max(s.bankFreeAt[req.bank], s.pumpFreeAt[req.rank]); free > now {
			readyAt = min(readyAt, free)
			qi++
			continue
		}
		busy := req.cost.Latency()
		energyJ := req.cost.Energy
		cells := req.cost.CellsWritten() + req.cost.DummyResets
		if s.inj != nil {
			var err error
			busy, energyJ, cells, err = s.writeWithVerify(req)
			if err != nil {
				return false, err
			}
		}
		done := now + busy
		s.bankFreeAt[req.bank] = done
		s.pumpFreeAt[req.rank] = done
		s.push(done, evBankFree, 0)

		s.res.Writes++
		s.wrWaitSum += done - req.arrival
		s.res.Energy.Write += energyJ
		s.res.CellsWritten += uint64(cells)
		if req.cost.Failed {
			s.res.WriteFailures++
		}

		s.writeQ = append(s.writeQ[:qi], s.writeQ[qi+1:]...)
		issued = true
	}
	s.writeReadyAt = readyAt
	return issued, nil
}

// admitWaiters moves stalled cores' requests into queues with free space.
func (s *sim) admitWaiters(now float64) {
	if s.parked == 0 {
		return
	}
	for i := range s.cores {
		c := &s.cores[i]
		if c.hasWaitRead && len(s.readQ) < s.cfg.ReadQueue {
			s.readQ = append(s.readQ, c.waitRead)
			c.hasWaitRead = false
			s.parked--
			// The parked request is in flight now; the core may run ahead
			// again if its window allows.
			if c.blockedRead && !c.cpu.Blocked() {
				c.blockedRead = false
				s.scheduleNextAccess(i, now)
			}
		}
		if c.hasWaitWrite && len(s.writeQ) < s.cfg.WriteQueue {
			s.enqueueWrite(&c.waitWrite)
			c.hasWaitWrite = false
			s.parked--
			s.scheduleNextAccess(i, now)
		}
	}
}

func (s *sim) finalize() {
	r := &s.res
	for i := range s.cores {
		r.Instructions += s.cores[i].instr
	}
	r.Seconds = s.endTime
	if s.endTime > 0 {
		r.IPC = float64(r.Instructions) / (s.endTime * s.cfg.FreqHz)
	}
	if r.Reads > 0 {
		r.AvgReadLatency = s.readLatSum / float64(r.Reads)
	}
	if r.Writes > 0 {
		r.AvgWriteWait = s.wrWaitSum / float64(r.Writes)
	}

	chips := float64(s.cfg.Ranks) * 8
	ov := energy.ForScheme(s.scheme)
	r.Energy.Leakage = energy.ChipLeakageW * ov.Leakage * chips * r.Seconds
	r.Energy.Pump = s.scheme.Pump().LeakageW * chips * r.Seconds
}

// String summarises the result for logs.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: IPC=%.3f reads=%d writes=%d E=%.3gJ (t=%.3gs, bursts=%d)",
		r.Scheme, r.Workload, r.IPC, r.Reads, r.Writes, r.Energy.Total(), r.Seconds, r.WriteBursts)
}

// Speedup returns r's IPC relative to base's, the paper's §V metric.
func (r *Result) Speedup(base *Result) float64 {
	if base.IPC == 0 {
		return math.Inf(1)
	}
	return r.IPC / base.IPC
}
