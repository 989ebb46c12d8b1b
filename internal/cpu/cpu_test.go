package cpu

import (
	"testing"

	"skybyte/internal/cachesim"
	"skybyte/internal/mem"
	"skybyte/internal/osched"
	"skybyte/internal/sim"
	"skybyte/internal/trace"
)

// mockBackend serves reads with a fixed latency, optionally hinting
// addresses in hintAddrs instead of returning data.
type mockBackend struct {
	eng       *sim.Engine
	latency   sim.Time
	wrLatency sim.Time
	hintAddrs map[mem.Addr]bool
	hintOnce  bool // hint only the first request per address
	fastAddrs map[mem.Addr]bool
	reads     []mem.Addr
	writes    []mem.Addr
	hinted    int
}

// resumeLatency models the re-issued access hitting the SSD DRAM cache
// because the page fetch completed while the thread was switched away.
const resumeLatency = 200 * sim.Nanosecond

func (m *mockBackend) Read(req *ReadReq) {
	m.reads = append(m.reads, req.Addr)
	if m.fastAddrs[req.Addr] {
		m.eng.After(resumeLatency, req.OnData)
		return
	}
	if m.hintAddrs[req.Addr] {
		if m.hintOnce {
			delete(m.hintAddrs, req.Addr)
			m.fastAddrs[req.Addr] = true
		}
		m.hinted++
		m.eng.After(10*sim.Nanosecond, req.OnHint)
		return
	}
	m.eng.After(m.latency, req.OnData)
}

func (m *mockBackend) Write(a mem.Addr, coreID, tenant int, record bool, accepted func()) {
	m.writes = append(m.writes, a)
	m.eng.After(m.wrLatency, accepted)
}

type rig struct {
	eng   *sim.Engine
	be    *mockBackend
	sched *osched.Scheduler
	cores []*Core
	llc   *cachesim.Cache
}

func newRig(nCores int, cfg Config, beLatency sim.Time) *rig {
	eng := &sim.Engine{}
	be := &mockBackend{eng: eng, latency: beLatency, wrLatency: 20 * sim.Nanosecond,
		hintAddrs: map[mem.Addr]bool{}, fastAddrs: map[mem.Addr]bool{}}
	sched := osched.New(eng, osched.NewPolicy(osched.PolicyRR, 1), 2*sim.Microsecond)
	llc := cachesim.New(cachesim.Config{Name: "llc", SizeBytes: 64 * mem.KiB, Ways: 16})
	r := &rig{eng: eng, be: be, sched: sched, llc: llc}
	for i := 0; i < nCores; i++ {
		l1 := cachesim.New(cachesim.Config{Name: "l1", SizeBytes: 4 * mem.KiB, Ways: 4})
		l2 := cachesim.New(cachesim.Config{Name: "l2", SizeBytes: 16 * mem.KiB, Ways: 8})
		r.cores = append(r.cores, New(eng, i, cfg, l1, l2, llc, be, sched))
	}
	return r
}

func (r *rig) run(threads ...*osched.Thread) {
	for _, t := range threads {
		r.sched.Enqueue(t)
	}
	for _, c := range r.cores {
		c.Start()
	}
	r.eng.Run()
}

func thread(id int, recs []trace.Record) *osched.Thread {
	return &osched.Thread{ID: id, Replay: trace.NewReplayer(&trace.SliceStream{Recs: recs})}
}

func TestComputeOnlyTiming(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(1, cfg, 100*sim.Nanosecond)
	th := thread(0, []trace.Record{{Kind: trace.Compute, N: 4000}})
	r.run(th)
	c := r.cores[0]
	// 4000 instructions at 4 IPC, 4 GHz = 1000 cycles = 250 ns.
	want := sim.Time(4000) * c.perInstr
	if th.Bound.Compute != want {
		t.Fatalf("compute time = %v, want %v", th.Bound.Compute, want)
	}
	if th.Bound.MemStall != 0 {
		t.Fatalf("unexpected memory stall %v", th.Bound.MemStall)
	}
	if !th.Finished {
		t.Fatal("thread not finished")
	}
}

func TestLoadMissStallsAndFills(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(1, cfg, 100*sim.Nanosecond)
	a := mem.Addr(0x10000)
	th := thread(0, []trace.Record{
		{Kind: trace.Load, Addr: a},
		{Kind: trace.Compute, N: 300}, // crosses the ROB: gates on the miss
		{Kind: trace.Load, Addr: a},   // then this access hits L1
	})
	r.run(th)
	c := r.cores[0]
	if len(r.be.reads) != 1 {
		t.Fatalf("backend reads = %d, want 1 (second should hit)", len(r.be.reads))
	}
	if c.Stats.L1Hits != 1 {
		t.Fatalf("L1 hits = %d, want 1", c.Stats.L1Hits)
	}
	// 300 instructions overlap ~19ns of the 100ns miss; the rest stalls.
	if th.Bound.MemStall < 50*sim.Nanosecond {
		t.Fatalf("mem stall = %v, want >50ns", th.Bound.MemStall)
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// Ten independent misses with MLP=8 should take far less than 10x the
	// latency: misses overlap under the ROB window.
	cfg := DefaultConfig()
	lat := 1 * sim.Microsecond
	var recs []trace.Record
	for i := 0; i < 8; i++ {
		recs = append(recs, trace.Record{Kind: trace.Load, Addr: mem.Addr(0x100000 + i*4096)})
	}
	r := newRig(1, cfg, lat)
	th := thread(0, recs)
	r.run(th)
	c := r.cores[0]
	serial := sim.Time(8) * lat
	if c.time >= serial/2 {
		t.Fatalf("exec time %v suggests no MLP (serial would be %v)", c.time, serial)
	}
	if c.time < lat {
		t.Fatalf("exec time %v below a single miss latency", c.time)
	}
}

func TestMLPCapEnforced(t *testing.T) {
	// With MLP=2, eight misses serialise in pairs: ~4x latency.
	cfg := DefaultConfig()
	cfg.MLP = 2
	lat := 1 * sim.Microsecond
	var recs []trace.Record
	for i := 0; i < 8; i++ {
		recs = append(recs, trace.Record{Kind: trace.Load, Addr: mem.Addr(0x100000 + i*4096)})
	}
	r := newRig(1, cfg, lat)
	r.run(thread(0, recs))
	c := r.cores[0]
	if c.time < 3*lat {
		t.Fatalf("exec time %v too fast for MLP=2", c.time)
	}
}

func TestROBLimitsRunahead(t *testing.T) {
	// A miss followed by a compute burst far larger than the ROB: the core
	// cannot run past ROB instructions, so total time ≈ miss + compute.
	cfg := DefaultConfig()
	lat := 10 * sim.Microsecond
	r := newRig(1, cfg, lat)
	recs := []trace.Record{
		{Kind: trace.Load, Addr: 0x100000},
		{Kind: trace.Compute, N: 100}, // within ROB: overlaps
		{Kind: trace.Compute, N: 200}, // crosses ROB boundary: waits
		{Kind: trace.Compute, N: 100000},
	}
	th := thread(0, recs)
	r.run(th)
	if th.Bound.MemStall < 9*sim.Microsecond {
		t.Fatalf("mem stall %v: ROB failed to gate run-ahead", th.Bound.MemStall)
	}
}

func TestStoreDoesNotBlock(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(1, cfg, 10*sim.Microsecond)
	var recs []trace.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, trace.Record{Kind: trace.Store, Addr: mem.Addr(0x100000 + i*64)})
	}
	th := thread(0, recs)
	r.run(th)
	// Stores allocate without fetching: no backend reads, tiny exec time.
	if len(r.be.reads) != 0 {
		t.Fatalf("stores generated %d backend reads; write-validate expected", len(r.be.reads))
	}
	if th.Bound.MemStall > sim.Microsecond {
		t.Fatalf("stores stalled the core: %v", th.Bound.MemStall)
	}
}

func TestDirtyEvictionReachesBackend(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(1, cfg, 100*sim.Nanosecond)
	// Write far more distinct lines than the whole hierarchy holds; dirty
	// evictions must surface as backend writes.
	var recs []trace.Record
	for i := 0; i < 4096; i++ {
		recs = append(recs, trace.Record{Kind: trace.Store, Addr: mem.Addr(0x100000 + i*64)})
	}
	r.run(thread(0, recs))
	if len(r.be.writes) == 0 {
		t.Fatal("no writebacks reached the backend")
	}
	if r.cores[0].Stats.Writebacks != uint64(len(r.be.writes)) {
		t.Fatal("writeback count mismatch")
	}
}

func TestWritebackCreditBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WBCredits = 2
	r := newRig(1, cfg, 100*sim.Nanosecond)
	r.be.wrLatency = 100 * sim.Microsecond // device absorbs writes very slowly
	var recs []trace.Record
	for i := 0; i < 4096; i++ {
		recs = append(recs, trace.Record{Kind: trace.Store, Addr: mem.Addr(0x100000 + i*64)})
	}
	th := thread(0, recs)
	r.run(th)
	if th.Bound.MemStall < 100*sim.Microsecond {
		t.Fatalf("slow device writes did not backpressure the core (stall=%v)", th.Bound.MemStall)
	}
}

func TestHintTriggersContextSwitch(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(1, cfg, 100*sim.Nanosecond)
	slow := mem.Addr(0x200000)
	r.be.hintAddrs[slow] = true
	r.be.hintOnce = true // re-issue after switch gets data
	t0 := thread(0, []trace.Record{
		{Kind: trace.Load, Addr: slow},
		{Kind: trace.Compute, N: 100},
	})
	t1 := thread(1, []trace.Record{{Kind: trace.Compute, N: 100000}})
	r.run(t0, t1)
	if t0.HintSwitches+t1.HintSwitches == 0 {
		t.Fatal("hint did not trigger a context switch")
	}
	if !t0.Finished || !t1.Finished {
		t.Fatal("threads did not finish")
	}
	if t0.Switches == 0 {
		t.Fatal("switched thread's counter not incremented")
	}
	if ctx := t0.Bound.CtxSwitch + t1.Bound.CtxSwitch; ctx < 2*sim.Microsecond {
		t.Fatalf("switch cost not charged: %v", ctx)
	}
	// The faulting load must have been re-issued after resume.
	n := 0
	for _, a := range r.be.reads {
		if a == slow {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("faulting load issued %d times, want >=2 (re-issue on resume)", n)
	}
}

func TestSwitchToSelfWhenQueueEmpty(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(1, cfg, 100*sim.Nanosecond)
	slow := mem.Addr(0x200000)
	r.be.hintAddrs[slow] = true
	r.be.hintOnce = true
	t0 := thread(0, []trace.Record{{Kind: trace.Load, Addr: slow}})
	r.run(t0)
	if !t0.Finished {
		t.Fatal("lone thread must finish after self-switch and re-issue")
	}
	if t0.Switches == 0 {
		t.Fatal("self-switch not counted")
	}
}

func TestHintedMissSquashedOthersContinue(t *testing.T) {
	// Thread 0 has a hinted miss plus a normal in-flight miss; the squash
	// must not corrupt state, and thread 0 must complete both on resume.
	cfg := DefaultConfig()
	r := newRig(1, cfg, 500*sim.Nanosecond)
	slow := mem.Addr(0x200000)
	fast := mem.Addr(0x300000)
	r.be.hintAddrs[slow] = true
	r.be.hintOnce = true
	t0 := thread(0, []trace.Record{
		{Kind: trace.Load, Addr: slow},
		{Kind: trace.Load, Addr: fast},
		{Kind: trace.Compute, N: 50},
	})
	t1 := thread(1, []trace.Record{{Kind: trace.Compute, N: 200000}})
	r.run(t0, t1)
	if !t0.Finished || !t1.Finished {
		t.Fatal("threads did not finish")
	}
}

func TestMultiThreadOvercommit(t *testing.T) {
	// 6 threads on 2 cores with slow memory: everything must finish, and
	// every thread must make progress.
	cfg := DefaultConfig()
	r := newRig(2, cfg, 2*sim.Microsecond)
	var threads []*osched.Thread
	for i := 0; i < 6; i++ {
		var recs []trace.Record
		for j := 0; j < 30; j++ {
			recs = append(recs, trace.Record{Kind: trace.Load, Addr: mem.Addr(0x100000 + (i*1000+j)*4096)})
			recs = append(recs, trace.Record{Kind: trace.Compute, N: 50})
		}
		threads = append(threads, thread(i, recs))
	}
	r.run(threads...)
	for _, th := range threads {
		if !th.Finished {
			t.Fatalf("thread %d did not finish", th.ID)
		}
	}
}

func TestHintsImproveThroughputWithManyThreads(t *testing.T) {
	// The headline mechanism: with long-latency hinted misses and more
	// threads than cores, context switching must beat stalling.
	mkThreads := func() []*osched.Thread {
		var ts []*osched.Thread
		for i := 0; i < 4; i++ {
			var recs []trace.Record
			for j := 0; j < 40; j++ {
				recs = append(recs, trace.Record{Kind: trace.Load, Addr: mem.Addr(0x100000 + (i*10000+j)*4096)})
				recs = append(recs, trace.Record{Kind: trace.Compute, N: 2000})
			}
			ts = append(ts, thread(i, recs))
		}
		return ts
	}
	lat := 30 * sim.Microsecond

	// Baseline: no hints — cores stall on every miss.
	rBase := newRig(1, DefaultConfig(), lat)
	rBase.run(mkThreads()...)
	baseTime := rBase.eng.Now()

	// SkyByte: every miss is hinted; data arrives in SSD DRAM by resume.
	rSky := newRig(1, DefaultConfig(), lat)
	rSky.be.hintOnce = true
	for i := 0; i < 4; i++ {
		for j := 0; j < 40; j++ {
			rSky.be.hintAddrs[mem.Addr(0x100000+(i*10000+j)*4096)] = true
		}
	}
	rSky.run(mkThreads()...)
	skyTime := rSky.eng.Now()

	if skyTime >= baseTime {
		t.Fatalf("context switching did not help: base=%v sky=%v", baseTime, skyTime)
	}
	if float64(baseTime)/float64(skyTime) < 1.5 {
		t.Fatalf("speedup %.2f too small for 30µs misses", float64(baseTime)/float64(skyTime))
	}
}

func TestFreeMSHROnSquashAblation(t *testing.T) {
	// With FreeMSHROnSquash disabled, squashed in-flight misses hold MSHR
	// slots; the run must still complete correctly.
	cfg := DefaultConfig()
	cfg.FreeMSHROnSquash = false
	cfg.MLP = 4
	r := newRig(1, cfg, 5*sim.Microsecond)
	slow := mem.Addr(0x200000)
	r.be.hintAddrs[slow] = true
	r.be.hintOnce = true
	t0 := thread(0, []trace.Record{
		{Kind: trace.Load, Addr: 0x300000},
		{Kind: trace.Load, Addr: slow},
		{Kind: trace.Load, Addr: 0x400000},
	})
	t1 := thread(1, []trace.Record{{Kind: trace.Compute, N: 100000}})
	r.run(t0, t1)
	if !t0.Finished || !t1.Finished {
		t.Fatal("ablation run did not finish")
	}
}

func TestVRuntimeAccrues(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(1, cfg, 100*sim.Nanosecond)
	th := thread(0, []trace.Record{{Kind: trace.Compute, N: 10000}})
	r.run(th)
	if th.VRuntime == 0 {
		t.Fatal("vruntime not accrued")
	}
}

// TestBoundednessAccountsAllTime: threads are the only record of where
// core time went, so every charge must land on one. Summed over the
// threads, Bound covers the core's whole timeline — for a lone
// memory-bound thread, and for two threads trading the core on
// SkyByte-Delay hints, where switch-outs charge a thread that has just
// left the core.
func TestBoundednessAccountsAllTime(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(1, cfg, sim.Microsecond)
	var recs []trace.Record
	for j := 0; j < 50; j++ {
		recs = append(recs, trace.Record{Kind: trace.Load, Addr: mem.Addr(0x100000 + j*4096)})
		recs = append(recs, trace.Record{Kind: trace.Compute, N: 100})
	}
	th := thread(0, recs)
	r.run(th)
	c := r.cores[0]
	if total := th.Bound.Total(); total != c.time {
		t.Fatalf("boundedness total %v != core time %v", total, c.time)
	}
	if th.Bound.MemFrac() < 0.5 {
		t.Fatalf("1µs misses every 100 instrs should be memory bound; frac=%v", th.Bound.MemFrac())
	}

	// Two threads on one core, each hinted on its own slow loads.
	r = newRig(1, cfg, 300*sim.Nanosecond)
	r.be.hintOnce = true
	var recs0, recs1 []trace.Record
	for j := 0; j < 6; j++ {
		a0, a1 := mem.Addr(0x200000+j*4096), mem.Addr(0x800000+j*4096)
		r.be.hintAddrs[a0], r.be.hintAddrs[a1] = true, true
		recs0 = append(recs0, trace.Record{Kind: trace.Load, Addr: a0}, trace.Record{Kind: trace.Compute, N: 400})
		recs1 = append(recs1, trace.Record{Kind: trace.Load, Addr: a1}, trace.Record{Kind: trace.Compute, N: 400})
	}
	t0, t1 := thread(0, recs0), thread(1, recs1)
	r.run(t0, t1)
	c = r.cores[0]
	if !t0.Finished || !t1.Finished {
		t.Fatal("threads did not finish")
	}
	if t0.HintSwitches == 0 || t1.HintSwitches == 0 {
		t.Fatalf("hint switches %d/%d: both threads must be switched out on a hint", t0.HintSwitches, t1.HintSwitches)
	}
	if total := t0.Bound.Total() + t1.Bound.Total(); total != c.time {
		t.Fatalf("Σ thread boundedness %v != core time %v", total, c.time)
	}
}

func TestDependentLoadsSerialise(t *testing.T) {
	// Eight dependent loads cannot overlap: total time ~ 8x latency,
	// unlike the independent-load MLP test.
	cfg := DefaultConfig()
	lat := 1 * sim.Microsecond
	var recs []trace.Record
	for i := 0; i < 8; i++ {
		recs = append(recs, trace.Record{Kind: trace.LoadDep, Addr: mem.Addr(0x100000 + i*4096)})
	}
	r := newRig(1, cfg, lat)
	r.run(thread(0, recs))
	c := r.cores[0]
	if c.time < 7*lat {
		t.Fatalf("dependent chain finished in %v; loads overlapped", c.time)
	}
}

func TestDependentChainSwitchesAndReplays(t *testing.T) {
	// A hinted miss in the middle of a chain: the switch must rewind and
	// replay the chain suffix correctly.
	cfg := DefaultConfig()
	r := newRig(1, cfg, 500*sim.Nanosecond)
	slow := mem.Addr(0x200000)
	r.be.hintAddrs[slow] = true
	r.be.hintOnce = true
	t0 := thread(0, []trace.Record{
		{Kind: trace.LoadDep, Addr: 0x100000},
		{Kind: trace.LoadDep, Addr: slow},
		{Kind: trace.LoadDep, Addr: 0x300000},
	})
	t1 := thread(1, []trace.Record{{Kind: trace.Compute, N: 100000}})
	r.run(t0, t1)
	if !t0.Finished || !t1.Finished {
		t.Fatal("threads did not finish")
	}
	if t0.Switches == 0 {
		t.Fatal("chain miss did not switch")
	}
	// All three chain addresses must have reached the backend.
	seen := map[mem.Addr]int{}
	for _, a := range r.be.reads {
		seen[a]++
	}
	if seen[0x100000] == 0 || seen[slow] < 2 || seen[0x300000] == 0 {
		t.Fatalf("chain replay wrong: %v", seen)
	}
}

// TestDeepestRewindFitsReplayRing drives the deepest rewind the ROB
// gating allows: a hinted miss followed by one-instruction records, so
// the core fetches a full ROB of records from the faulting load before
// the switch rewinds to it. At the largest ROB system.Config.Validate
// accepts, that rewind must land inside the replay ring.
func TestDeepestRewindFitsReplayRing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROB = trace.ReplayCap - 2
	r := newRig(1, cfg, 100*sim.Nanosecond)
	slow := mem.Addr(0x200000)
	r.be.hintAddrs[slow] = true
	r.be.hintOnce = true
	recs := []trace.Record{{Kind: trace.Load, Addr: slow}}
	for len(recs) < 2*cfg.ROB {
		recs = append(recs, trace.Record{Kind: trace.Compute, N: 1})
	}
	t0 := thread(0, recs)
	// The faulting load starts at index 0, so the fresh index at the
	// first switch is the rewind depth in records.
	var depth uint64
	r.cores[0].OnCtxSwitch = func(int, sim.Time) {
		if depth == 0 {
			depth = t0.Replay.NextIdx()
		}
	}
	r.run(t0)
	if depth != uint64(cfg.ROB) {
		t.Fatalf("switch rewound %d records, want the full ROB of %d", depth, cfg.ROB)
	}
	if !t0.Finished {
		t.Fatal("thread did not finish after the rewind")
	}
	if n := len(r.be.reads); n != 2 || r.be.reads[1] != slow {
		t.Fatalf("backend reads %v, want the faulting load issued twice", r.be.reads)
	}
}
