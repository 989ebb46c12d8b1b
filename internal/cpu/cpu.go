// Package cpu implements the multi-core timing model: trace-driven cores
// with a ROB-window interval model (Sniper-style), MSHR-bounded memory-level
// parallelism, writeback credits for device write backpressure, and the
// SkyByte Long Delay Exception machinery of §III-A — squash, precise rewind
// to the faulting load, and a coordinated context switch through the OS
// scheduler.
//
// The model reproduces the phenomena the paper measures (memory
// boundedness, the impracticality of hiding µs-scale flash latency with
// ROB-scale lookahead, exception delivery at the retire stage) without
// simulating individual pipeline stages; see DESIGN.md §1.
package cpu

import (
	"skybyte/internal/cachesim"
	"skybyte/internal/mem"
	"skybyte/internal/osched"
	"skybyte/internal/sim"
	"skybyte/internal/trace"
)

// ReadReq is a demand cacheline read issued to the memory backend.
type ReadReq struct {
	Addr   mem.Addr
	CoreID int
	// Tenant is the issuing thread's tenant group (osched.Thread.Tenant),
	// 0 in a solo run; the backend uses it to attribute the request's
	// latency and class to a per-tenant accounting slice.
	Tenant int
	// Record is true when the access is past the thread's warmup and
	// should contribute to latency/AMAT statistics.
	Record bool
	// Squashed is set by the core when the issuing instruction was
	// squashed by a context switch; the backend may skip the response.
	Squashed bool
	// OnData fires when the data response (MemData) arrives at the core.
	OnData func()
	// OnHint fires when a SkyByte-Delay NDR arrives instead of data; no
	// data response will follow.
	OnHint func()
}

// Backend is the off-chip memory system as seen by a core: host DRAM, the
// CXL link, and the SSD controller behind it.
type Backend interface {
	// Read issues a demand read; exactly one of req.OnData / req.OnHint
	// will eventually fire (unless the request is squashed first).
	Read(req *ReadReq)
	// Write issues a cacheline writeback; accepted fires when the device
	// has absorbed it, returning the writeback credit. tenant attributes
	// the writeback to the issuing thread's tenant group (a writeback's
	// line may have been dirtied by an earlier thread on the core, so
	// the attribution is to whoever forced it out — the paying party).
	Write(a mem.Addr, coreID, tenant int, record bool, accepted func())
}

// Config parameterises a core (Table II values as defaults via
// DefaultConfig).
type Config struct {
	CyclePs     sim.Time // 250 ps = 4 GHz
	IssueIPC    float64  // sustained non-memory IPC
	ROB         int      // 256 entries
	MLP         int      // max outstanding LLC misses (L1 MSHRs)
	L2HitExtra  sim.Time // effective exposed latency of an L2 hit
	LLCHitExtra sim.Time // effective exposed latency of an LLC hit
	WBCredits   int      // outstanding writeback budget per core

	// FreeMSHROnSquash releases MSHRs of squashed requests immediately
	// (the paper's default; §III-A). Disabling it is an ablation.
	FreeMSHROnSquash bool

	// BatchRecords bounds how many trace records one step event processes.
	BatchRecords int
}

// DefaultConfig returns Table II's core parameters.
func DefaultConfig() Config {
	return Config{
		CyclePs:          250 * sim.Picosecond,
		IssueIPC:         4,
		ROB:              256,
		MLP:              8,
		L2HitExtra:       3 * sim.Nanosecond,
		LLCHitExtra:      10 * sim.Nanosecond,
		WBCredits:        64,
		FreeMSHROnSquash: true,
		BatchRecords:     256,
	}
}

// Stats aggregates per-core measurements. Where core time went
// (boundedness), context switches and LLC misses are booked only on the
// thread that incurred them (osched.Thread); the system totals are the
// threads' accounts summed.
type Stats struct {
	ExecutedInstrs uint64 // includes re-executed instructions
	Loads          uint64
	Stores         uint64
	L1Hits         uint64
	L2Hits         uint64
	LLCHits        uint64
	Writebacks     uint64
	FinishedAt     sim.Time
}

type coreState uint8

const (
	stRunning coreState = iota
	stWaitMem
	stWaitCredit
	stIdle
)

// missEntry is one outstanding LLC miss. Entries are pooled per core: the
// embedded request and its OnData/OnHint closures are built once, when the
// entry is first allocated, and reused for every later miss the entry
// carries — steady-state misses allocate nothing. An entry is recycled
// only at points where no backend callback can still be pending (retire,
// the squashed branch of its own callback, or a squash of an entry whose
// callback already fired); the backend's exactly-one-callback contract
// makes those points safe.
type missEntry struct {
	next       *missEntry // pool free-list link
	instrIdx   uint64
	addr       mem.Addr
	done       bool
	hinted     bool
	squashed   bool
	completion sim.Time
	req        ReadReq
}

// wbReq carries one writeback's arguments from issue time to its scheduled
// event; pooled like missEntry.
type wbReq struct {
	next   *wbReq
	core   *Core
	addr   mem.Addr
	tenant int
	record bool
}

// Typed event handlers (sim.RegisterHandler contract: init-time only).
var (
	// hCoreStep resumes a core's step loop (batch-budget yield, Start).
	hCoreStep sim.HandlerID
	// hIssueRead delivers a demand read to the backend at core-local time.
	hIssueRead sim.HandlerID
	// hIssueWB delivers a writeback. The wbReq recycles before the call:
	// Write copies its arguments, and the accepted callback may re-enter
	// the step loop and issue new writebacks that reuse the record.
	hIssueWB sim.HandlerID
)

func init() {
	hCoreStep = sim.RegisterHandler(func(_ uint64, p1, _ any) {
		p1.(*Core).step()
	})
	hIssueRead = sim.RegisterHandler(func(_ uint64, p1, p2 any) {
		p1.(*Core).backend.Read(p2.(*ReadReq))
	})
	hIssueWB = sim.RegisterHandler(func(_ uint64, p1, _ any) {
		w := p1.(*wbReq)
		c := w.core
		addr, tenant, record := w.addr, w.tenant, w.record
		w.next = c.wbFree
		c.wbFree = w
		c.backend.Write(addr, c.ID, tenant, record, c.wbAccept)
	})
}

// Core is one simulated CPU core.
type Core struct {
	ID  int
	eng *sim.Engine
	cfg Config

	l1, l2  *cachesim.Cache
	llc     *cachesim.Cache // shared
	backend Backend
	sched   *osched.Scheduler

	thread      *osched.Thread
	threadStart sim.Time

	time         sim.Time
	fetchIdx     uint64
	out          []*missEntry
	zombies      []*missEntry
	wbCredits    int
	pendingWB    []mem.Addr
	state        coreState
	pendingStall sim.Time

	// stash holds a dependent load that cannot issue until all
	// outstanding misses resolve (serialised pointer chase).
	stash      trace.Record
	stashIdx   uint64
	stashValid bool

	// Per-core pools, the shared writeback-accepted callback, and
	// onReady bound once as the scheduler's wake-up on every idle.
	missFree *missEntry
	wbFree   *wbReq
	wbAccept func()
	ready    func()

	perInstr sim.Time
	Stats    Stats

	// OnThreadFinished, when set, is invoked as each thread retires its
	// final instruction (system-level completion tracking).
	OnThreadFinished func(t *osched.Thread, at sim.Time)

	// OnCtxSwitch, when set, is invoked at each coordinated context
	// switch with the core's local instant (telemetry timeline
	// recording); nil costs one pointer check on the switch path.
	OnCtxSwitch func(coreID int, at sim.Time)
}

// New builds a core. l1 and l2 are private; llc is shared among cores.
func New(eng *sim.Engine, id int, cfg Config, l1, l2, llc *cachesim.Cache, backend Backend, sched *osched.Scheduler) *Core {
	perInstr := sim.Time(float64(cfg.CyclePs) / cfg.IssueIPC)
	if perInstr < 1 {
		perInstr = 1
	}
	c := &Core{
		ID: id, eng: eng, cfg: cfg,
		l1: l1, l2: l2, llc: llc,
		backend: backend, sched: sched,
		wbCredits: cfg.WBCredits,
		perInstr:  perInstr,
	}
	c.wbAccept = func() {
		c.wbCredits++
		if c.state == stWaitCredit {
			c.state = stRunning
			c.advanceTo(c.eng.Now())
			c.step()
		}
	}
	c.ready = c.onReady
	return c
}

// getMiss pops a pooled miss entry, binding its request callbacks on first
// allocation so they survive every reuse.
func (c *Core) getMiss() *missEntry {
	e := c.missFree
	if e == nil {
		e = &missEntry{}
		e.req.CoreID = c.ID
		e.req.OnData = func() { c.onData(e) }
		e.req.OnHint = func() { c.onHint(e) }
		return e
	}
	c.missFree = e.next
	e.next = nil
	return e
}

func (c *Core) putMiss(e *missEntry) {
	e.done, e.hinted, e.squashed = false, false, false
	e.req.Squashed = false
	e.next = c.missFree
	c.missFree = e
}

func (c *Core) getWB(a mem.Addr, tenant int, record bool) *wbReq {
	w := c.wbFree
	if w == nil {
		w = &wbReq{core: c}
	} else {
		c.wbFree = w.next
		w.next = nil
	}
	w.addr, w.tenant, w.record = a, tenant, record
	return w
}

// Start begins execution; the core pulls its first thread from the
// scheduler (free initial dispatch).
func (c *Core) Start() {
	if c.acquireThread() {
		c.eng.AtH(c.time, hCoreStep, 0, c, nil)
	}
}

// --- time accounting ---
//
// Every charge is booked once, into the running thread's own account;
// the system Boundedness is the sum over threads. Charges only ever
// occur while a thread occupies the core — the one exception, the
// switch paid when a thread leaves the core, is charged to the
// departing thread in switchOut — so every picosecond of accounted core
// time lands on exactly one thread.

func (c *Core) chargeCompute(d sim.Time) {
	c.time += d
	c.thread.Bound.Compute += d
}

func (c *Core) chargeMem(d sim.Time) {
	c.time += d
	c.thread.Bound.MemStall += d
}

func (c *Core) chargeCtx(d sim.Time) {
	c.time += d
	c.thread.Bound.CtxSwitch += d
}

// advanceTo moves local time forward to t, booking the gap as memory stall.
func (c *Core) advanceTo(t sim.Time) {
	if t > c.time {
		c.chargeMem(t - c.time)
	}
}

// syncIdle moves local time to now without boundedness accounting (used
// when waking from idle — no thread was running).
func (c *Core) syncIdle() {
	if n := c.eng.Now(); n > c.time {
		c.time = n
	}
}

// --- thread lifecycle ---

func (c *Core) acquireThread() bool {
	t := c.sched.Pick()
	if t == nil {
		c.state = stIdle
		c.sched.WaitReady(c.ready)
		return false
	}
	c.thread = t
	c.threadStart = c.time
	c.fetchIdx = t.Replay.NextIdx()
	c.state = stRunning
	return true
}

func (c *Core) onReady() {
	if c.state != stIdle {
		return
	}
	c.syncIdle()
	if c.acquireThread() {
		c.step()
	}
}

func (c *Core) accrueRuntime() {
	if c.thread != nil {
		c.thread.VRuntime += c.time - c.threadStart
		c.threadStart = c.time
	}
}

// parkThread takes the current open-loop thread off the core until its
// gate's next arrival instant.
func (c *Core) parkThread() {
	t := c.thread
	c.accrueRuntime()
	c.thread = nil
	c.sched.ScheduleRelease(t, t.Gate.NextArrival)
	c.switchOut(t)
}

// switchOut pays the context switch that swaps a successor in after t
// left the core (parked or retired), if one is runnable. t no longer
// occupies the core, but its departure forced the switch, so the time
// and the switch are t's.
func (c *Core) switchOut(t *osched.Thread) {
	if c.sched.Runnable() > 0 {
		c.time += c.sched.SwitchCost
		t.Bound.CtxSwitch += c.sched.SwitchCost
		t.Switches++
	}
}

func (c *Core) finishThread() {
	t := c.thread
	c.accrueRuntime()
	// A truncated final request (the instruction budget ran out
	// mid-request) still completes: its work is done.
	if t.Gate != nil {
		t.Gate.Complete(c.time)
	}
	t.Finished = true
	c.Stats.FinishedAt = c.time
	if c.OnThreadFinished != nil {
		c.OnThreadFinished(t, c.time)
	}
	c.thread = nil
	c.switchOut(t)
}

// --- the main loop ---

// InjectStall charges the core an asynchronous OS overhead (e.g. the TLB
// shootdown after a page migration) the next time it makes progress. The
// time is booked as context-switch/OS overhead.
func (c *Core) InjectStall(d sim.Time) { c.pendingStall += d }

func (c *Core) step() {
	budget := c.cfg.BatchRecords
	for {
		if c.pendingStall > 0 {
			c.chargeCtx(c.pendingStall)
			c.pendingStall = 0
		}
		// Retire completed misses at the ROB head.
		for len(c.out) > 0 && c.out[0].done {
			c.advanceTo(c.out[0].completion)
			c.popOldest()
		}
		// Writeback backpressure: drain queued writebacks as credits
		// return; stall while any remain unsendable.
		if len(c.pendingWB) > 0 {
			c.drainPendingWB()
			if len(c.pendingWB) > 0 {
				c.state = stWaitCredit
				return
			}
		}
		// ROB / MSHR / dependence gating on the oldest incomplete miss.
		if len(c.out) > 0 {
			oldest := c.out[0]
			gated := c.stashValid ||
				c.fetchIdx-oldest.instrIdx >= uint64(c.cfg.ROB) ||
				len(c.out)+len(c.zombies) >= c.cfg.MLP ||
				c.thread == nil || c.thread.Replay.Done() ||
				// An open-loop request boundary drains the pipeline
				// before the completion/admission decision below, so a
				// request's misses all resolve before it completes.
				(c.thread.Gate != nil && c.thread.Gate.Boundary(c.thread.Replay.CursorIdx()))
			if gated {
				if oldest.hinted {
					// SkyByte Long Delay Exception at the retire stage.
					c.ctxSwitch(oldest)
					if c.thread == nil {
						return // idle
					}
					continue
				}
				c.state = stWaitMem
				return
			}
		}
		// A stashed dependent load issues once the pipeline drained.
		if c.stashValid {
			c.stashValid = false
			c.Stats.Loads++
			c.chargeCompute(c.perInstr)
			c.load(c.stash.Addr.Line(), c.stashIdx)
			continue
		}
		if c.thread == nil {
			if !c.acquireThread() {
				return
			}
		}
		// Open-loop request boundary: every admitted instruction has
		// retired and the pipeline is drained (the gating term above), so
		// the in-service request completes here. The next request admits
		// only once its arrival instant has passed — otherwise the thread
		// parks off-core until the arrival releases it.
		if g := c.thread.Gate; g != nil && g.Boundary(c.thread.Replay.CursorIdx()) && !c.thread.Replay.Done() {
			g.Complete(c.time)
			if g.NextArrival > c.time {
				c.parkThread()
				if c.thread == nil && !c.acquireThread() {
					return
				}
				continue
			}
			g.Admit(c.time, c.thread.PastWarmup())
		}
		if budget <= 0 {
			c.eng.AtH(c.time, hCoreStep, 0, c, nil)
			return
		}
		budget--
		rec, idx, ok := c.thread.Replay.Next()
		if !ok {
			if len(c.out) > 0 {
				continue // drain through the gating path above
			}
			c.finishThread()
			if c.thread == nil && !c.acquireThread() {
				return
			}
			continue
		}
		c.exec(rec, idx)
	}
}

func (c *Core) exec(rec trace.Record, idx uint64) {
	n := rec.Instructions()
	c.fetchIdx = idx + n
	c.Stats.ExecutedInstrs += n
	c.thread.Advance(c.fetchIdx)
	switch rec.Kind {
	case trace.Compute:
		c.chargeCompute(sim.Time(n) * c.perInstr)
	case trace.Load:
		c.chargeCompute(c.perInstr)
		c.Stats.Loads++
		c.load(rec.Addr.Line(), idx)
	case trace.LoadDep:
		if len(c.out) > 0 {
			// Cannot issue until the chain resolves; park it and gate.
			c.stash = rec
			c.stashIdx = idx
			c.stashValid = true
			return
		}
		c.chargeCompute(c.perInstr)
		c.Stats.Loads++
		c.load(rec.Addr.Line(), idx)
	case trace.Store:
		c.chargeCompute(c.perInstr)
		c.Stats.Stores++
		c.store(rec.Addr.Line())
	}
}

// load walks the hierarchy; an LLC miss becomes an outstanding entry
// gating retirement.
func (c *Core) load(a mem.Addr, idx uint64) {
	if c.l1.Access(a, false) {
		c.Stats.L1Hits++
		return
	}
	if c.l2.Access(a, false) {
		c.Stats.L2Hits++
		c.chargeMem(c.cfg.L2HitExtra)
		c.installL1(a, false)
		return
	}
	if c.llc.Access(a, false) {
		c.Stats.LLCHits++
		c.chargeMem(c.cfg.LLCHitExtra)
		c.installL2(a, false)
		c.installL1(a, false)
		return
	}
	c.thread.LLCMisses++
	// MSHR merge: a younger load to an in-flight line rides along with the
	// existing entry and does not gate retirement separately.
	for _, e := range c.out {
		if e.addr == a {
			return
		}
	}
	e := c.getMiss()
	e.instrIdx = idx
	e.addr = a
	e.completion = 0
	e.req.Addr = a
	e.req.Tenant = c.thread.Tenant
	e.req.Record = c.thread.PastWarmup()
	c.out = append(c.out, e)
	c.eng.AtH(c.time, hIssueRead, 0, c, &e.req)
}

// store dirties the line where it hits; a full miss allocates in L1
// without fetching (write-validate — see the cachesim package comment).
func (c *Core) store(a mem.Addr) {
	if c.l1.Access(a, true) {
		c.Stats.L1Hits++
		return
	}
	if c.l2.Access(a, true) {
		c.Stats.L2Hits++
		return
	}
	if c.llc.Access(a, true) {
		c.Stats.LLCHits++
		return
	}
	c.thread.LLCMisses++
	c.installL1(a, true)
}

// --- cache fills with victim cascade ---

func (c *Core) installL1(a mem.Addr, dirty bool) {
	v := c.l1.Fill(a, dirty)
	if v.Valid && v.Dirty {
		c.installL2(v.Addr, true)
	}
}

func (c *Core) installL2(a mem.Addr, dirty bool) {
	v := c.l2.Fill(a, dirty)
	if v.Valid && v.Dirty {
		c.installLLC(v.Addr, true)
	}
}

func (c *Core) installLLC(a mem.Addr, dirty bool) {
	v := c.llc.Fill(a, dirty)
	if v.Valid && v.Dirty {
		c.issueWriteback(v.Addr)
	}
}

// --- writebacks with credits ---

func (c *Core) issueWriteback(a mem.Addr) {
	if c.wbCredits == 0 {
		c.pendingWB = append(c.pendingWB, a)
		return
	}
	c.sendWriteback(a)
}

func (c *Core) sendWriteback(a mem.Addr) {
	c.wbCredits--
	c.Stats.Writebacks++
	record := c.thread != nil && c.thread.PastWarmup()
	tenant := 0
	if c.thread != nil {
		tenant = c.thread.Tenant
	}
	issueAt := c.time
	if n := c.eng.Now(); n > issueAt {
		issueAt = n
	}
	c.eng.AtH(issueAt, hIssueWB, 0, c.getWB(a, tenant, record), nil)
}

func (c *Core) drainPendingWB() {
	for len(c.pendingWB) > 0 && c.wbCredits > 0 {
		a := c.pendingWB[0]
		copy(c.pendingWB, c.pendingWB[1:])
		c.pendingWB = c.pendingWB[:len(c.pendingWB)-1]
		c.sendWriteback(a)
	}
}

// --- miss completion and hints ---

func (c *Core) popOldest() {
	e := c.out[0]
	copy(c.out, c.out[1:])
	c.out = c.out[:len(c.out)-1]
	// Retired means done: the data callback already fired, so nothing can
	// touch the entry again.
	c.putMiss(e)
}

func (c *Core) onData(e *missEntry) {
	e.done = true
	e.completion = c.eng.Now()
	if e.squashed {
		c.removeZombie(e)
		c.putMiss(e)
		return
	}
	// Fill the hierarchy at data arrival (tags only).
	c.installLLC(e.addr, false)
	c.installL2(e.addr, false)
	c.installL1(e.addr, false)
	if c.state == stWaitMem && len(c.out) > 0 && c.out[0] == e {
		c.state = stRunning
		c.advanceTo(c.eng.Now())
		c.step()
	}
}

func (c *Core) onHint(e *missEntry) {
	if e.squashed {
		// This was the entry's only callback, so it can recycle — unless the
		// FreeMSHROnSquash ablation parked it in zombies, where it keeps
		// holding its MSHR slot exactly as before.
		if !c.inZombies(e) {
			c.putMiss(e)
		}
		return
	}
	e.hinted = true
	if c.state == stWaitMem && len(c.out) > 0 && c.out[0] == e {
		c.state = stRunning
		c.advanceTo(c.eng.Now())
		c.step()
	}
}

func (c *Core) inZombies(e *missEntry) bool {
	for _, z := range c.zombies {
		if z == e {
			return true
		}
	}
	return false
}

func (c *Core) removeZombie(e *missEntry) {
	for i, z := range c.zombies {
		if z == e {
			copy(c.zombies[i:], c.zombies[i+1:])
			c.zombies = c.zombies[:len(c.zombies)-1]
			return
		}
	}
}

// --- the coordinated context switch (§III-A C3–C4) ---

func (c *Core) ctxSwitch(oldest *missEntry) {
	if c.OnCtxSwitch != nil {
		c.OnCtxSwitch(c.ID, c.time)
	}
	c.thread.Switches++
	c.thread.HintSwitches++
	c.accrueRuntime()

	// The rewind target must be read before the squash loop below recycles
	// oldest (it is hinted, so its callback has fired).
	rewindIdx := oldest.instrIdx

	// Squash all in-flight requests. With FreeMSHROnSquash (default) their
	// MSHRs free immediately; otherwise un-hinted requests hold MSHR slots
	// until their data arrives (the ablation of §III-A). Entries whose only
	// callback has already fired (done or hinted) recycle here; the rest
	// recycle when their pending callback arrives and sees the squash.
	for _, e := range c.out {
		e.squashed = true
		e.req.Squashed = true
		if e.done || e.hinted {
			c.putMiss(e)
		} else if !c.cfg.FreeMSHROnSquash {
			c.zombies = append(c.zombies, e)
		}
	}
	c.out = c.out[:0]

	// Precise rewind: resume from the faulting load so it re-issues on
	// switch-in ("when the thread is switched back, it will resume from
	// this instruction and re-issue this memory access to the CXL-SSD").
	// A stashed dependent load is younger than the faulting load, so the
	// rewind re-delivers it too.
	c.stashValid = false
	c.thread.Replay.RewindTo(rewindIdx)
	c.fetchIdx = rewindIdx

	c.chargeCtx(c.sched.SwitchCost)
	c.thread = c.sched.Switch(c.thread)
	c.threadStart = c.time
	if c.thread != nil {
		c.fetchIdx = c.thread.Replay.NextIdx()
	}
}
