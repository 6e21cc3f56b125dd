package memsys

import (
	"context"
	"fmt"
	"math"

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

type event struct {
	t    float64
	seq  uint64
	kind eventKind
	core int
	bank int
}

// eventHeap is a binary min-heap of events ordered by (t, seq). Every
// event carries a unique seq, so the order is total and the pop sequence
// is fixed whatever the heap's layout. push and pop sift exactly as the
// standard library's heap package does, without boxing each event in an
// interface.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
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
	gen     *trace.Generator
	hier    *cache.Hierarchy
	cpu     *cpu.Core
	pending trace.Access
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

	bankFreeAt []float64
	pumpFreeAt []float64

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
// that completes.
func SimulateContext(ctx context.Context, s *core.Scheme, bench trace.Benchmark, cfg Config) (*Result, error) {
	if obs.SpansEnabled() {
		var stop func()
		ctx, stop = obs.StartSpan(ctx, "memsys.sim:"+s.Name()+"/"+bench.Name)
		defer stop()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	perCore, err := trace.PerCore(bench, cfg.Cores)
	if err != nil {
		return nil, err
	}

	sm := &sim{
		ctx:        ctx,
		cfg:        cfg,
		scheme:     s,
		cores:      make([]coreState, cfg.Cores),
		readQ:      make([]readReq, 0, cfg.ReadQueue),
		writeQ:     make([]writeReq, 0, cfg.WriteQueue),
		bankFreeAt: make([]float64, cfg.Banks()),
		pumpFreeAt: make([]float64, cfg.Ranks),
		lineWrites: make(map[uint64]uint64),
		shifter:    wear.NewRowShifter(),
	}
	sm.res.Workload = bench.Name
	sm.res.Scheme = s.Name()
	if err := sm.initFaults(); err != nil {
		return nil, err
	}

	if s.WearLevelingCompatible() {
		sm.leveler, err = wear.NewSecurityRefresh(1<<30, 64, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	coreCfg := cpu.Config{BaseIPC: cfg.CoreIPC, Window: cfg.Window, MSHRs: cfg.MSHRs, FreqHz: cfg.FreqHz}
	for i := range sm.cores {
		g, err := trace.NewGenerator(perCore[i], cfg.Seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		sm.cores[i].gen = g
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

func (s *sim) push(e event) {
	s.seq++
	e.seq = s.seq
	s.events.push(e)
}

// scheduleNextAccess generates core i's next access and schedules its
// arrival after the compute gap. Once the access budget is exhausted the
// core retires.
func (s *sim) scheduleNextAccess(i int, from float64) {
	c := &s.cores[i]
	if c.issued >= s.cfg.AccessesPerCore {
		c.done = true
		return
	}
	c.issued++
	c.pending = c.gen.Next()
	c.instr += c.pending.InstrGap
	dt := c.cpu.Advance(c.pending.InstrGap)
	s.push(event{t: from + dt, kind: evCoreAccess, core: i})
}

// mapLine translates a logical line into (bank, rank, row, offset),
// applying wear leveling and line retirement; phys is the resolved
// physical line identity the per-line state is keyed on.
func (s *sim) mapLine(line uint64, isWrite bool) (bank, rank, row, offset int, phys uint64) {
	phys = line
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
	nb := uint64(s.cfg.Banks())
	arr := s.scheme.Array().Config()
	size := uint64(arr.Size)
	muxW := uint64(arr.MuxWidth())

	bank = int(phys % nb)
	rank = bank / s.cfg.BanksPerRank
	row = int((phys / nb) % size)
	base := int((phys / (nb * size)) % muxW)
	if isWrite {
		n := s.lineWrites[phys]
		s.lineWrites[phys] = n + 1
		offset = s.shifter.Offset(base, n)
	} else {
		offset = s.shifter.Offset(base, s.lineWrites[phys])
	}
	return bank, rank, row, offset, phys
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
		switch e.kind {
		case evCoreAccess:
			if err := s.onCoreAccess(e.t, e.core); err != nil {
				return err
			}
		case evReadDone:
			s.onReadDone(e.t, e.core)
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
	a := c.pending
	if c.hier != nil {
		return s.dispatchCached(now, i, a)
	}
	if a.Kind == trace.Read {
		s.issueCoreRead(now, i, a.Line)
		return nil
	}
	return s.submitWrite(now, i, a)
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
// misses and dirty writebacks reach the memory controller.
func (s *sim) dispatchCached(now float64, i int, a trace.Access) error {
	c := &s.cores[i]
	lat, mem := c.hier.Access(a.Line, a.Kind == trace.Write)
	t := now + float64(lat)/s.cfg.FreqHz
	demandRead := false
	for _, m := range mem {
		if m.IsWrite {
			wa := a
			wa.Line = m.Line
			if err := s.submitWrite(t, i, wa); err != nil {
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
	bank, _, _, _, _ := s.mapLine(line, false)
	req := readReq{core: i, bank: bank, arrival: now}
	if len(s.readQ) >= s.cfg.ReadQueue {
		c := &s.cores[i]
		c.waitRead, c.hasWaitRead = req, true
		return false
	}
	s.readQ = append(s.readQ, req)
	return true
}

func (s *sim) submitWrite(now float64, i int, a trace.Access) error {
	lw, _, err := write.FlipNWrite(a.Old[:], a.New[:])
	if err != nil {
		return err
	}
	bank, rank, row, offset, phys := s.mapLine(a.Line, true)
	cost, err := s.scheme.CostWrite(s.ctx, row, offset, lw)
	if err != nil {
		return err
	}
	req := writeReq{bank: bank, rank: rank, arrival: now, cost: cost}
	if s.inj != nil {
		req.row, req.offset, req.phys, req.lw = row, offset, phys, lw
	}
	if len(s.writeQ) >= s.cfg.WriteQueue {
		c := &s.cores[i]
		c.waitWrite, c.hasWaitWrite = req, true
		return nil
	}
	s.writeQ = append(s.writeQ, req)
	s.scheduleNextAccess(i, now) // posted write: the core moves on
	return nil
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
		s.push(event{t: done, kind: evBankFree, bank: req.bank})
		complete := now + s.cfg.MCOverhead + s.cfg.ReadBankTime + s.cfg.BusTime
		s.push(event{t: complete, kind: evReadDone, core: req.core})

		s.res.Reads++
		s.readLatSum += complete - req.arrival
		s.res.Energy.Read += energy.ReadEnergyPerLine

		s.readQ = append(s.readQ[:qi], s.readQ[qi+1:]...)
		issued = true
	}
	return issued
}

func (s *sim) issueWrites(now float64) (bool, error) {
	issued := false
	for qi := 0; qi < len(s.writeQ); {
		req := &s.writeQ[qi]
		if s.bankFreeAt[req.bank] > now || s.pumpFreeAt[req.rank] > now {
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
		s.push(event{t: done, kind: evBankFree, bank: req.bank})

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
	return issued, nil
}

// admitWaiters moves stalled cores' requests into queues with free space.
func (s *sim) admitWaiters(now float64) {
	for i := range s.cores {
		c := &s.cores[i]
		if c.hasWaitRead && len(s.readQ) < s.cfg.ReadQueue {
			s.readQ = append(s.readQ, c.waitRead)
			c.hasWaitRead = false
			// The parked request is in flight now; the core may run ahead
			// again if its window allows.
			if c.blockedRead && !c.cpu.Blocked() {
				c.blockedRead = false
				s.scheduleNextAccess(i, now)
			}
		}
		if c.hasWaitWrite && len(s.writeQ) < s.cfg.WriteQueue {
			s.writeQ = append(s.writeQ, c.waitWrite)
			c.hasWaitWrite = false
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
