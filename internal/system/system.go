package system

import (
	"skybyte/internal/cachesim"
	"skybyte/internal/core"
	"skybyte/internal/cpu"
	"skybyte/internal/cxl"
	"skybyte/internal/dram"
	"skybyte/internal/flash"
	"skybyte/internal/fleet"
	"skybyte/internal/ftl"
	"skybyte/internal/mem"
	"skybyte/internal/migrate"
	"skybyte/internal/osched"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/telemetry"
	"skybyte/internal/trace"
)

// MigrationStats counts page movement between the tiers.
type MigrationStats struct {
	Promotions uint64
	Demotions  uint64
}

// System is one fully wired simulated machine.
//
// Reentrancy: a System is single-threaded — its event engine and every
// component it wires (cores, caches, scheduler, link, DRAMs, flash,
// FTL, controller, migration state) live on the owning instance, and no
// package in the simulator keeps mutable package-level state that runs
// could observe differently: the only package-level vars anywhere are
// immutable presets (flash.TimingULL, system.AllVariants), the sim
// handler table (append-only, written exclusively at package init), and
// the trace zeta memo (a concurrency-safe cache of a pure function).
// Distinct System instances may therefore be constructed and Run
// concurrently from different goroutines; internal/runner relies on
// this to execute campaign design points in parallel. A single instance
// must not be shared across goroutines.
type System struct {
	Eng sim.Engine
	cfg Config

	cores []*cpu.Core
	llc   *cachesim.Cache
	sched *osched.Scheduler

	link     *cxl.Link
	hostDRAM *dram.DRAM

	// The device backends (DESIGN.md §9). Single-device runs — the
	// default, Config.Devices <= 1 — wire exactly one and leave placer
	// nil, so every request path short-circuits to devs[0] with no fleet
	// overhead. Fleet runs (Devices >= 2) route each logical page
	// through placer to its owning device, whose downstream port
	// serializes transfers behind the shared host link.
	devs   []*device
	placer *fleet.Placer

	threads  []*osched.Thread
	finished int

	// Tiering state.
	promoted  map[uint64][]byte // lpa -> host copy (payload nil unless tracking)
	pool      *migrate.Pool
	plb       *migrate.PLB
	tpp       *migrate.TPPSampler
	astri     *cachesim.Cache
	astriIn   map[mem.Addr]*astriFetch
	promoteQ  []uint64
	promoting bool

	// Measurements. Each request-path measurement is booked once, into
	// the issuing tenant's part; a solo run has exactly one part, and
	// collect derives the whole-system totals by merging them.
	parts    []tenantPart
	flashLat stats.LatencyHist
	migr     MigrationStats

	// The tenant groups of a multi-tenant run (DeclareTenants), one per
	// part; nil in solo runs, whose Result carries no Tenants section.
	tenantInfo []TenantInfo

	// Open-loop measurement state (DeclareSLOClasses); empty in
	// closed-loop runs. The all-classes total is merged from the
	// classes at collect.
	sloInfo  []SLOClass
	sloStats []stats.OpenStats

	// Transaction pools for the hot request paths (see the readTxn
	// comment below).
	readFree  *readTxn
	writeFree *writeTxn
	hostFree  *hostTxn
	hopFree   *linkHop

	// Telemetry state (Config.TelemetryCadence). All nil/empty when
	// telemetry is off: the request paths then skip instrumentation
	// through single nil checks and allocate nothing — the zero-cost
	// contract TestColdRunAllocsBudget and cmd/benchgate pin.
	tel          *telemetry.Recorder
	telSpans     *telemetry.SpanRecorder
	classTracks  []*telemetry.ClassTrack
	telInflight  []int      // per-tenant in-flight backend requests
	telReadSlots []sim.Time // memory-track tid allocator (busy-until)
	telCtxEnd    []sim.Time // per-core last ctx-switch span end
}

// readTxn carries one CXL demand read from link entry to data delivery.
// Transactions are pooled: the continuation closures are bound once, at
// first allocation, capturing the stable transaction pointer — so the
// whole link→controller→link chain schedules without allocating. Exactly
// one terminal continuation fires per transaction (the controller calls
// either respond or hint, never both; forwarded promoted reads terminate
// in hostFwd), and each terminal recycles the transaction before invoking
// the outward callback, which may immediately start a new request that
// reuses it.
type readTxn struct {
	next *readTxn
	s    *System
	req  *cpu.ReadReq
	a    mem.Addr
	lpa  uint64
	t0   sim.Time
	meta core.ReadMeta

	atDevice   func()
	hostFwd    func()
	hintFn     func(sim.Time)
	hintArrive func()
	respondFn  func(core.ReadMeta)
	dataArrive func()
}

func (s *System) getReadTxn() *readTxn {
	x := s.readFree
	if x != nil {
		s.readFree = x.next
		x.next = nil
		return x
	}
	x = &readTxn{s: s}
	x.atDevice = func() {
		sys := x.s
		// Re-check at device arrival: the page may have been promoted
		// while the request was in flight (the PLB forwards such cases).
		if _, ok := sys.promoted[x.lpa]; ok {
			sys.sendToHost(x.lpa, cxl.HeaderBytes, x.hostFwd)
			return
		}
		var hint func(sim.Time)
		if sys.cfg.CtxSwitchEnabled {
			hint = x.hintFn
		}
		sys.ctrlFor(x.lpa).MemRd(cxlOffset(x.a), x.req.Record, x.respondFn, hint)
	}
	x.hostFwd = func() {
		sys, req, a := x.s, x.req, x.a
		sys.putReadTxn(x)
		sys.hostRead(req, a)
	}
	x.hintFn = func(est sim.Time) {
		sys := x.s
		sys.parts[x.req.Tenant].hints++
		sys.sendToHost(x.lpa, cxl.HeaderBytes, x.hintArrive)
	}
	x.hintArrive = func() {
		sys, onHint := x.s, x.req.OnHint
		if sys.telInflight != nil {
			sys.telInflight[x.req.Tenant]--
		}
		sys.putReadTxn(x)
		onHint()
	}
	x.respondFn = func(meta core.ReadMeta) {
		x.meta = meta
		x.s.sendToHost(x.lpa, cxl.DataBytes, x.dataArrive)
	}
	x.dataArrive = func() {
		sys, req := x.s, x.req
		if req.Record && !req.Squashed {
			lat := sys.Eng.Now() - x.t0
			m := &x.meta
			proto := lat - m.Index - m.SSDDRAM - m.Flash
			if proto < 0 {
				proto = 0
			}
			sys.recordRead(req.Tenant, lat, m.Class, [5]sim.Time{0, proto, m.Index, m.SSDDRAM, m.Flash})
			if m.Class == stats.SSDReadMiss {
				sys.flashLat.Observe(m.Flash)
			}
			if sys.telSpans != nil {
				sys.telReadSpan(x.t0, lat, m)
			}
		}
		if sys.telInflight != nil {
			sys.telInflight[req.Tenant]--
		}
		sys.putReadTxn(x)
		req.OnData()
	}
	return x
}

func (s *System) putReadTxn(x *readTxn) {
	x.req = nil
	x.next = s.readFree
	s.readFree = x
}

// writeTxn is readTxn's analogue for the CXL writeback path.
type writeTxn struct {
	next     *writeTxn
	s        *System
	a        mem.Addr
	lpa      uint64
	tenant   int
	record   bool
	accepted func()

	atDevice func()
	wrDone   func()
}

func (s *System) getWriteTxn() *writeTxn {
	x := s.writeFree
	if x != nil {
		s.writeFree = x.next
		x.next = nil
		return x
	}
	x = &writeTxn{s: s}
	x.atDevice = func() {
		sys := x.s
		if _, ok := sys.promoted[x.lpa]; ok {
			a, tenant, record, accepted := x.a, x.tenant, x.record, x.accepted
			sys.putWriteTxn(x)
			sys.hostWrite(a, tenant, record, accepted)
			return
		}
		sys.ctrlFor(x.lpa).MemWr(cxlOffset(x.a), nil, x.record, x.tenant, x.wrDone)
	}
	x.wrDone = func() {
		sys, accepted, lpa := x.s, x.accepted, x.lpa
		if x.record {
			sys.recordClass(x.tenant, stats.SSDWrite)
		}
		if sys.telInflight != nil {
			sys.telInflight[x.tenant]--
		}
		sys.putWriteTxn(x)
		// Credit returns to the host over the response channel.
		sys.sendToHost(lpa, cxl.HeaderBytes, accepted)
	}
	return x
}

func (s *System) putWriteTxn(x *writeTxn) {
	x.accepted = nil
	x.next = s.writeFree
	s.writeFree = x
}

// hostTxn covers both host-DRAM request shapes; a given use fires exactly
// one of the two bound continuations (DRAM invokes its done callback once).
type hostTxn struct {
	next     *hostTxn
	s        *System
	req      *cpu.ReadReq
	t0       sim.Time
	tenant   int
	record   bool
	accepted func()

	rdDone func()
	wrDone func()
}

func (s *System) getHostTxn() *hostTxn {
	x := s.hostFree
	if x != nil {
		s.hostFree = x.next
		x.next = nil
		return x
	}
	x = &hostTxn{s: s}
	x.rdDone = func() {
		sys, req := x.s, x.req
		if req.Record && !req.Squashed {
			lat := sys.Eng.Now() - x.t0
			sys.recordRead(req.Tenant, lat, stats.HostRW, [5]sim.Time{lat, 0, 0, 0, 0})
		}
		if sys.telInflight != nil {
			sys.telInflight[req.Tenant]--
		}
		sys.putHostTxn(x)
		req.OnData()
	}
	x.wrDone = func() {
		sys, accepted := x.s, x.accepted
		if x.record {
			sys.recordClass(x.tenant, stats.HostRW)
		}
		if sys.telInflight != nil {
			sys.telInflight[x.tenant]--
		}
		sys.putHostTxn(x)
		accepted()
	}
	return x
}

func (s *System) putHostTxn(x *hostTxn) {
	x.req = nil
	x.accepted = nil
	x.next = s.hostFree
	s.hostFree = x
}

// TenantInfo names one tenant group of a multi-tenant run: the group
// label, the workload its threads replay, and its thread count.
type TenantInfo struct {
	Name     string
	Workload string
	Threads  int
}

// tenantPart is one tenant group's share of the request-path
// measurements: its off-chip request classes, demand-access AMAT
// components, read latencies and SkyByte-Delay hints, plus the instant
// its last thread retired.
type tenantPart struct {
	breakdown stats.RequestBreakdown
	amat      stats.AMAT
	readLat   stats.LatencyHist
	hints     uint64
	done      sim.Time
}

type astriFetch struct{ writeAccepts []func() }

// device is one SSD backend of the machine: its controller DRAM, flash
// array, FTL, and controller (which owns the write log). Fleet runs
// wire several; the port models the device's downstream CXL attachment
// — zero extra propagation latency (the shared host link already
// charges it) but finite serialization bandwidth, so a device with a
// deep transfer backlog stalls independently of its peers. Single-device
// runs leave port nil and move bytes on the host link alone, exactly
// the pre-fleet machine.
type device struct {
	port    *cxl.Link
	ssdDRAM *dram.DRAM
	arr     *flash.Array
	fl      *ftl.FTL
	ctrl    *core.Controller
}

// New wires a system from cfg. The returned System is independent of
// every other instance and safe to Run on its own goroutine.
//
// A config that fails Validate, or an invalid fleet configuration
// (Config.Devices/Placement), panics, the same contract as WithVariant on
// an unknown variant: callers taking external input validate first with
// Config.Validate and fleet.Validate or fleet.ParsePolicy.
func New(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{cfg: cfg, promoted: make(map[uint64][]byte), parts: make([]tenantPart, 1)}
	s.link = cxl.New(&s.Eng, cfg.Link)
	s.hostDRAM = dram.New(&s.Eng, cfg.HostDRAM)

	nDev := cfg.Devices
	if nDev < 1 {
		nDev = 1
	}
	if nDev > 1 {
		p, err := fleet.NewPlacer(cfg.fleetConfig())
		if err != nil {
			panic("system: " + err.Error())
		}
		s.placer = p
	}
	s.devs = make([]*device, nDev)
	for i := range s.devs {
		d := &device{}
		d.ssdDRAM = dram.New(&s.Eng, cfg.SSDDRAM)
		d.arr = flash.New(&s.Eng, cfg.Geometry, cfg.Timing)
		d.fl = ftl.New(&s.Eng, d.arr, cfg.FTL)
		// Each device preconditions under its own seed so fleet members
		// start from distinct (but deterministic) flash states.
		d.fl.Precondition(cfg.PreconditionFill, cfg.PreconditionRewrit, cfg.Seed+uint64(i))
		d.ctrl = core.New(&s.Eng, cfg.controllerConfig(), d.arr, d.fl, d.ssdDRAM)
		if nDev > 1 {
			d.port = cxl.New(&s.Eng, cxl.Config{LatencyEachWay: 0, BytesPerNs: cfg.Link.BytesPerNs})
		}
		s.devs[i] = d
	}

	s.sched = osched.New(&s.Eng, osched.NewPolicy(cfg.Policy, policySeed), cfg.CtxSwitchCost)
	s.llc = cachesim.New(cachesim.Config{Name: "llc", SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays})
	for i := 0; i < cfg.Cores; i++ {
		l1 := cachesim.New(cachesim.Config{Name: "l1", SizeBytes: l1Bytes, Ways: l1Ways})
		l2 := cachesim.New(cachesim.Config{Name: "l2", SizeBytes: l2Bytes, Ways: l2Ways})
		c := cpu.New(&s.Eng, i, cfg.CPU, l1, l2, s.llc, s, s.sched)
		c.OnThreadFinished = s.onThreadFinished
		s.cores = append(s.cores, c)
	}

	switch cfg.Migration {
	case MigrationAdaptive:
		s.initPromotionPool()
		for _, d := range s.devs {
			d.ctrl.OnPromoteCandidate = s.promoteCandidate
		}
	case MigrationTPP:
		s.initPromotionPool()
		s.tpp = migrate.NewTPPSampler(tppScanInterval, tppThreshold)
	case MigrationAstri:
		s.astri = cachesim.New(cachesim.Config{
			Name: "astri", SizeBytes: cfg.PromotedMaxBytes,
			Ways: astriWays, LineBytes: mem.PageBytes,
		})
		s.astriIn = make(map[mem.Addr]*astriFetch)
	}
	if cfg.TelemetryCadence > 0 {
		s.tel = telemetry.New(&s.Eng, cfg.TelemetryCadence)
		if cfg.TelemetryTimeline {
			s.telSpans = s.tel.EnableSpans(0)
		}
	}
	return s
}

func (s *System) initPromotionPool() {
	pages := s.cfg.PromotedMaxBytes / mem.PageBytes
	if pages < 1 {
		pages = 1
	}
	s.pool = migrate.NewPool(pages)
	s.plb = migrate.NewPLB(plbEntries)
}

// Config returns the configuration the system was wired from.
func (s *System) Config() Config { return s.cfg }

// Controller exposes the SSD controller (traffic counters, compaction and
// locality statistics). In a fleet run this is device 0's controller;
// per-device accounting flows through Result.Devices.
func (s *System) Controller() *core.Controller { return s.devs[0].ctrl }

// FTL exposes the translation layer (device 0's in a fleet run).
func (s *System) FTL() *ftl.FTL { return s.devs[0].fl }

// Flash exposes the array (device 0's in a fleet run).
func (s *System) Flash() *flash.Array { return s.devs[0].arr }

// Devices returns the number of wired SSD backends (1 unless the fleet
// layer is on).
func (s *System) Devices() int { return len(s.devs) }

// Link exposes the CXL link.
func (s *System) Link() *cxl.Link { return s.link }

// Scheduler exposes the OS scheduler.
func (s *System) Scheduler() *osched.Scheduler { return s.sched }

// Cores exposes the CPU cores (per-core statistics).
func (s *System) Cores() []*cpu.Core { return s.cores }

// AddThread registers one software thread replaying stream, truncated to
// totalInstr instructions. The leading warmupFrac fraction is excluded from
// latency statistics. The thread joins tenant group 0 — the only group of
// a solo run; multi-tenant runs use DeclareTenants + AddThreadFor.
func (s *System) AddThread(stream trace.Stream, totalInstr uint64) *osched.Thread {
	return s.AddThreadFor(0, stream, totalInstr)
}

// DeclareTenants switches the system into multi-tenant accounting:
// each subsequent AddThreadFor call attributes its thread to one of the
// declared groups, the request paths book their measurements into that
// group's part, and Run's Result carries a Tenants slice in declaration
// order. Call once, with at least one group, before any threads are
// added.
func (s *System) DeclareTenants(infos []TenantInfo) {
	if len(s.threads) > 0 || len(s.tenantInfo) > 0 {
		panic("system: DeclareTenants must be called once, before AddThread")
	}
	if len(infos) == 0 {
		panic("system: DeclareTenants needs at least one tenant group")
	}
	s.tenantInfo = append([]TenantInfo(nil), infos...)
	s.parts = make([]tenantPart, len(infos))
}

// SLOClass names one open-loop service class and its analytically
// offered request rate (threads × per-thread rate × schedule mean,
// computed by the arrival spec) for goodput-vs-offered comparisons.
type SLOClass struct {
	Name       string
	OfferedRPS float64
}

// DeclareSLOClasses switches the system into open-loop accounting:
// threads gated via AttachGate attribute their requests to one of the
// declared classes, and Run's Result carries an OpenLoop section with
// per-class latency percentiles, goodput, and queue delay. Call once,
// before any gates are attached.
func (s *System) DeclareSLOClasses(classes []SLOClass) {
	if len(s.sloInfo) > 0 {
		panic("system: DeclareSLOClasses must be called once")
	}
	if len(classes) == 0 {
		panic("system: DeclareSLOClasses needs at least one class")
	}
	s.sloInfo = append([]SLOClass(nil), classes...)
	s.sloStats = make([]stats.OpenStats, len(s.sloInfo))
	if s.tel != nil {
		s.classTracks = make([]*telemetry.ClassTrack, len(s.sloInfo))
		for i := range s.classTracks {
			s.classTracks[i] = new(telemetry.ClassTrack)
		}
	}
}

// AttachGate paces thread t as an open-loop client of the given SLO
// class: its replay is sliced into reqInstr-instruction requests
// admitted at the instants src yields. Run releases the thread at its
// first arrival rather than at time zero.
func (s *System) AttachGate(t *osched.Thread, class int, src osched.ArrivalSource, reqInstr uint64) {
	if class < 0 || class >= len(s.sloInfo) {
		panic("system: AttachGate class index out of range (call DeclareSLOClasses first)")
	}
	t.Gate = osched.NewGate(src, reqInstr, class, &s.sloStats[class])
	if s.tel != nil {
		t.Gate.Track = s.classTracks[class]
		if s.telSpans != nil {
			t.Gate.Spans = s.telSpans
			t.Gate.SpanTID = int32(t.ID)
		}
	}
}

// AddThreadFor is AddThread with an explicit tenant group index
// (0 <= tenant < len of the DeclareTenants slice; 0 when none declared).
func (s *System) AddThreadFor(tenant int, stream trace.Stream, totalInstr uint64) *osched.Thread {
	if tenant < 0 || tenant >= len(s.parts) {
		panic("system: AddThreadFor tenant index out of range")
	}
	t := &osched.Thread{
		ID:     len(s.threads),
		Tenant: tenant,
		Replay: trace.NewReplayer(&trace.Limited{Src: stream, Budget: totalInstr}),
		Warmup: uint64(warmupFrac * float64(totalInstr)),
	}
	s.threads = append(s.threads, t)
	return t
}

func (s *System) onThreadFinished(t *osched.Thread, at sim.Time) {
	s.finished++
	if p := &s.parts[t.Tenant]; at > p.done {
		p.done = at
	}
}

func (s *System) allDone() bool { return s.finished >= len(s.threads) }

// Run executes until every thread retires, then drains background work and
// returns the collected measurements.
func (s *System) Run() *Result {
	for _, t := range s.threads {
		if t.Gate != nil {
			// An open-loop client only becomes runnable when its first
			// request arrives.
			s.sched.ScheduleRelease(t, t.Gate.NextArrival)
			continue
		}
		s.sched.Enqueue(t)
	}
	for _, c := range s.cores {
		c.Start()
	}
	if s.tpp != nil {
		s.Eng.After(tppScanInterval, s.tppScan)
	}
	if s.tel != nil {
		s.setupTelemetry()
	}
	s.Eng.Run()
	return s.collect()
}

// --- address helpers ---

func cxlOffset(a mem.Addr) uint64 { return uint64(a - mem.CXLBase) }
func cxlPage(a mem.Addr) uint64   { return cxlOffset(a) >> mem.PageShift }

// --- fleet routing (DESIGN.md §9) ---

// ctrlFor returns the controller owning lpa: devs[0] when the fleet
// layer is off, the placer's pick otherwise.
func (s *System) ctrlFor(lpa uint64) *core.Controller {
	if s.placer == nil {
		return s.devs[0].ctrl
	}
	return s.devs[s.placer.Device(lpa)].ctrl
}

// sendToDevice moves size bytes host→device toward lpa's owner: across
// the shared host link and then, in fleet mode, through the owning
// device's downstream port. The single-device path is the bare link
// call; the fleet path chains its two legs through a pooled linkHop,
// so neither allocates in steady state.
func (s *System) sendToDevice(lpa uint64, size int, done func()) {
	if s.placer == nil {
		s.link.ToDevice(size, done)
		return
	}
	port := s.devs[s.placer.Device(lpa)].port
	s.link.ToDevice(size, s.getHop(port, false, size, done).fire)
}

// sendToHost moves size bytes device→host from lpa's owner: through the
// owning device's port, then the shared host link.
func (s *System) sendToHost(lpa uint64, size int, done func()) {
	if s.placer == nil {
		s.link.ToHost(size, done)
		return
	}
	port := s.devs[s.placer.Device(lpa)].port
	port.ToHost(size, s.getHop(s.link, true, size, done).fire)
}

// linkHop is a fleet transfer's second leg, waiting for its first leg
// to land. Hops are pooled per System: fire binds once at first
// allocation, and a hop recycles before its second leg is issued.
type linkHop struct {
	next   *linkHop
	link   *cxl.Link // carries the second leg
	toHost bool
	size   int
	done   func()
	fire   func() // first leg's completion: issues the second leg
}

func (s *System) getHop(link *cxl.Link, toHost bool, size int, done func()) *linkHop {
	h := s.hopFree
	if h == nil {
		h = &linkHop{}
		h.fire = func() { s.hopLanded(h) }
	} else {
		s.hopFree = h.next
		h.next = nil
	}
	h.link, h.toHost, h.size, h.done = link, toHost, size, done
	return h
}

func (s *System) hopLanded(h *linkHop) {
	link, toHost, size, done := h.link, h.toHost, h.size, h.done
	h.link, h.done = nil, nil
	h.next = s.hopFree
	s.hopFree = h
	if toHost {
		link.ToHost(size, done)
	} else {
		link.ToDevice(size, done)
	}
}

// noteFleetAccess books one demand access with the placement layer and,
// when the hot/cold policy decides the page has earned the hot tier,
// starts the inter-device transfer. Called only in fleet mode.
func (s *System) noteFleetAccess(lpa uint64) {
	if m, ok := s.placer.NoteAccess(lpa); ok {
		s.fleetMigrate(m)
	}
}

// fleetMigrate simulates one hot/cold tier promotion: the host pulls
// the page from the cold device (a flash fetch if it isn't cached),
// trims the cold device's mapping, and rewrites the page on the hot
// device — every leg through the normal port and link paths, so
// migrations compete with demand traffic for bandwidth. Ownership has
// already flipped, so requests issued after the decision route to the
// new owner; stale write-log lines on the source drain as dead
// compaction traffic (a documented simplification — there is no
// cross-device log forwarding).
func (s *System) fleetMigrate(m fleet.Migration) {
	src, dst := s.devs[m.From], s.devs[m.To]
	const page = mem.LinesPerPage * cxl.DataBytes
	src.ctrl.FetchPage(m.LPA, func() {
		src.fl.Trim(m.LPA)
		src.port.ToHost(page, func() {
			s.link.ToHost(page, func() {
				s.link.ToDevice(page, func() {
					dst.port.ToDevice(page, func() {
						dst.ctrl.WritePage(m.LPA, nil, nil)
					})
				})
			})
		})
	})
}

// --- measurement recording ---

// recordRead books one completed off-chip read into the issuing
// tenant's part.
func (s *System) recordRead(tenant int, lat sim.Time, class stats.RequestClass, parts [5]sim.Time) {
	p := &s.parts[tenant]
	p.readLat.Observe(lat)
	p.breakdown.Inc(class)
	p.amat.AddAccess(parts)
}

// recordClass books one classified request without latency components
// (the write paths).
func (s *System) recordClass(tenant int, class stats.RequestClass) {
	s.parts[tenant].breakdown.Inc(class)
}

// --- cpu.Backend ---

// Read routes a demand cacheline read: host DRAM, promoted page, the
// AstriFlash host cache, or over CXL to the SSD controller.
func (s *System) Read(req *cpu.ReadReq) {
	if s.telInflight != nil {
		s.telInflight[req.Tenant]++
	}
	a := req.Addr
	if !a.IsCXL() || s.cfg.DRAMOnly {
		s.hostRead(req, a)
		return
	}
	lpa := cxlPage(a)
	if _, ok := s.promoted[lpa]; ok {
		s.pool.Touch(lpa, s.Eng.Now())
		s.hostRead(req, a)
		return
	}
	if s.tpp != nil {
		s.tpp.Note(lpa)
	}
	if s.astri != nil {
		s.astriRead(req, a)
		return
	}
	if s.placer != nil {
		s.noteFleetAccess(lpa)
	}
	x := s.getReadTxn()
	x.req, x.a, x.lpa, x.t0 = req, a, lpa, s.Eng.Now()
	s.sendToDevice(lpa, cxl.HeaderBytes, x.atDevice)
}

// Write routes a cacheline writeback.
func (s *System) Write(a mem.Addr, coreID, tenant int, record bool, accepted func()) {
	if s.telInflight != nil {
		s.telInflight[tenant]++
	}
	if !a.IsCXL() || s.cfg.DRAMOnly {
		s.hostWrite(a, tenant, record, accepted)
		return
	}
	lpa := cxlPage(a)
	if _, ok := s.promoted[lpa]; ok {
		s.pool.Touch(lpa, s.Eng.Now())
		s.hostWrite(a, tenant, record, accepted)
		return
	}
	if s.tpp != nil {
		s.tpp.Note(lpa)
	}
	if s.astri != nil {
		s.astriWrite(a, tenant, record, accepted)
		return
	}
	if s.placer != nil {
		s.noteFleetAccess(lpa)
	}
	x := s.getWriteTxn()
	x.a, x.lpa, x.tenant, x.record, x.accepted = a, lpa, tenant, record, accepted
	s.sendToDevice(lpa, cxl.DataBytes, x.atDevice)
}

func (s *System) hostRead(req *cpu.ReadReq, a mem.Addr) {
	x := s.getHostTxn()
	x.req, x.t0 = req, s.Eng.Now()
	s.hostDRAM.Access(a, false, x.rdDone)
}

func (s *System) hostWrite(a mem.Addr, tenant int, record bool, accepted func()) {
	x := s.getHostTxn()
	x.tenant, x.record, x.accepted = tenant, record, accepted
	s.hostDRAM.Access(a, true, x.wrDone)
}

// --- adaptive promotion (§III-C) ---

func (s *System) promoteCandidate(lpa uint64) {
	if !s.plb.TryBegin(lpa) {
		return
	}
	if !s.ctrlFor(lpa).MarkMigrating(lpa) {
		s.plb.Complete(lpa)
		return
	}
	// Promotions serialise through the host's MSI-X handler: one interrupt
	// is serviced at a time, bounding the promotion rate the way a real
	// kernel does.
	s.promoteQ = append(s.promoteQ, lpa)
	s.drainPromotions()
}

func (s *System) drainPromotions() {
	if s.promoting || len(s.promoteQ) == 0 {
		return
	}
	s.promoting = true
	lpa := s.promoteQ[0]
	s.promoteQ = s.promoteQ[1:]
	// MSI-X interrupt to the host, then the OS allocates a physical page
	// and the 64 cachelines copy over the CXL link.
	s.Eng.After(msixCost, func() {
		s.sendToHost(lpa, mem.LinesPerPage*cxl.DataBytes, func() {
			s.completePromotion(lpa)
			s.promoting = false
			s.drainPromotions()
		})
	})
}

func (s *System) completePromotion(lpa uint64) {
	data, ok := s.ctrlFor(lpa).FinishMigration(lpa)
	if !ok {
		s.plb.Complete(lpa)
		return
	}
	if s.pool.Full() {
		s.demoteColdest()
	}
	s.promoted[lpa] = data
	s.pool.Add(lpa, s.Eng.Now())
	s.plb.Complete(lpa)
	s.migr.Promotions++
	// PTE update, then a TLB shootdown interrupts every core.
	s.Eng.After(pteUpdateCost, func() {
		for _, c := range s.cores {
			c.InjectStall(tlbShootdown)
		}
	})
}

// demoteColdest evicts the LRU promoted page back to the SSD through the
// normal write path (a full-page copy).
func (s *System) demoteColdest() {
	lpa, ok := s.pool.Coldest()
	if !ok {
		return
	}
	data := s.promoted[lpa]
	s.pool.Remove(lpa)
	delete(s.promoted, lpa)
	s.migr.Demotions++
	s.sendToDevice(lpa, mem.LinesPerPage*cxl.DataBytes, func() {
		s.ctrlFor(lpa).WritePage(lpa, data, nil)
	})
}

// --- TPP-style promotion (§VI-H) ---

func (s *System) tppScan() {
	if s.allDone() {
		return
	}
	for _, lpa := range s.tpp.Scan(s.Eng.Now()) {
		if _, ok := s.promoted[lpa]; ok {
			continue
		}
		if !s.plb.TryBegin(lpa) {
			break
		}
		lpa := lpa
		// TPP promotes regardless of SSD DRAM residency, so a promotion
		// may first pull the page from flash.
		ctrl := s.ctrlFor(lpa)
		ctrl.FetchPage(lpa, func() {
			if !ctrl.MarkMigrating(lpa) {
				s.plb.Complete(lpa)
				return
			}
			s.sendToHost(lpa, mem.LinesPerPage*cxl.DataBytes, func() {
				s.completePromotion(lpa)
			})
		})
	}
	s.Eng.After(tppScanInterval, s.tppScan)
}

// --- AstriFlash-style host page cache (§VI-H) ---

func (s *System) astriRead(req *cpu.ReadReq, a mem.Addr) {
	page := a.Page()
	if s.astri.Access(page, false) {
		s.hostRead(req, a)
		return
	}
	s.astriMiss(page, req.Tenant, req.Record)
	if s.telInflight != nil {
		// The request terminates here (it re-issues after the page
		// lands, re-entering Read), so its in-flight count closes now.
		s.telInflight[req.Tenant]--
	}
	// A host-cache miss triggers a user-level thread switch; the request
	// re-issues after the page lands.
	s.Eng.After(astriSwitchCost/4, req.OnHint)
}

func (s *System) astriWrite(a mem.Addr, tenant int, record bool, accepted func()) {
	page := a.Page()
	if s.astri.Access(page, true) {
		s.hostWrite(a, tenant, record, accepted)
		return
	}
	f := s.astriMiss(page, tenant, record)
	f.writeAccepts = append(f.writeAccepts, func() {
		s.astri.Access(page, true) // dirty the landed page
		s.hostWrite(a, tenant, record, accepted)
	})
}

// astriMiss starts (or joins) the 4 KB on-demand fetch of page from the SSD.
func (s *System) astriMiss(page mem.Addr, tenant int, record bool) *astriFetch {
	if f, ok := s.astriIn[page]; ok {
		return f
	}
	f := &astriFetch{}
	s.astriIn[page] = f
	lpa := cxlPage(page)
	s.sendToDevice(lpa, cxl.HeaderBytes, func() {
		s.ctrlFor(lpa).FetchPage(lpa, func() {
			if record {
				s.recordClass(tenant, stats.SSDReadMiss)
			}
			s.sendToHost(lpa, mem.LinesPerPage*cxl.DataBytes, func() {
				v := s.astri.Fill(page, false)
				if v.Valid && v.Dirty {
					// Dirty victim pages write back at page granularity —
					// AstriFlash always accesses the SSD in pages.
					vlpa := cxlPage(v.Addr)
					s.sendToDevice(vlpa, mem.LinesPerPage*cxl.DataBytes, func() {
						s.ctrlFor(vlpa).WritePage(vlpa, nil, nil)
					})
				}
				delete(s.astriIn, page)
				for _, acc := range f.writeAccepts {
					acc()
				}
			})
		})
	})
	return f
}
