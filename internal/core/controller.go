package core

import (
	"math/bits"

	"skybyte/internal/dram"
	"skybyte/internal/flash"
	"skybyte/internal/ftl"
	"skybyte/internal/mem"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/writelog"
)

// Config parameterises the controller. The knob names mirror the paper's
// artifact (write_log_enable, device_triggered_ctx_swt, cs_threshold,
// ssd_cache_size_byte, ssd_cache_way, promotion_enable).
type Config struct {
	// WriteLogEnabled turns on SkyByte's CXL-aware SSD DRAM management
	// (§III-B). Off = Base-CSSD page-granular RMW cache.
	WriteLogEnabled bool
	// WriteLogBytes is the total double-buffered log capacity (Table II:
	// 64 MB); each half holds WriteLogBytes/2.
	WriteLogBytes int
	// CacheBytes / CacheWays size the page-granular data cache (Table II:
	// 448 MB with the log, 512 MB without).
	CacheBytes int
	CacheWays  int

	// HintEnabled turns on the SkyByte-Delay NDR path (§III-A).
	HintEnabled bool
	// HintThreshold is the context-switch trigger threshold of Algorithm 1
	// (Table II: 2 µs).
	HintThreshold sim.Time

	// PrefetchNext enables Base-CSSD's next-page prefetch on read miss.
	PrefetchNext bool

	// MigrationEnabled turns on hot-page promotion candidate tracking;
	// MigrationThreshold is the access count that nominates a page. Counts
	// are per flash page and persist across cache residencies (§III-C:
	// "the SSD controller tracks the access count of flash pages"), with a
	// lazy epoch decay so stale heat fades.
	MigrationEnabled   bool
	MigrationThreshold uint32
	// MigrationMinResidency additionally requires the page to have been
	// cached this long before nomination, filtering single-sweep streams.
	MigrationMinResidency sim.Time

	// TrackData enables the functional byte path end to end.
	TrackData bool
	// TrackLocality collects the Figs. 5–6 per-page line-usage CDFs.
	TrackLocality bool
}

// Fixed controller parameters of the modelled machine. Changing one
// changes the model's output and needs a system.ResultVersion bump.
const (
	// logIndexLatency / cacheIndexLatency are the FPGA-measured lookup
	// latencies (§V: 72 ns / 49 ns); parallel probing charges the max.
	logIndexLatency   = 72 * sim.Nanosecond
	cacheIndexLatency = 49 * sim.Nanosecond
	// heatDecayInterval is the epoch length after which page heat halves.
	heatDecayInterval = 1 * sim.Millisecond
	// compactWavePerChannel bounds how many compaction page-writes are in
	// flight per flash channel, so background compaction cannot
	// monopolise the FIFO queues ahead of demand reads.
	compactWavePerChannel = 4
)

// ReadMeta describes how a read was served, for system-level AMAT and
// request-class accounting (Figs. 16–17).
type ReadMeta struct {
	Class   stats.RequestClass // SSDReadHit or SSDReadMiss
	Index   sim.Time           // SSD DRAM index lookup time
	SSDDRAM sim.Time           // SSD DRAM array access time
	Flash   sim.Time           // flash wait (zero on hits)
	Data    []byte             // 64 B payload when tracking data
}

// TenantLogStats splits write-path activity by tenant group, so
// multi-tenant runs can show who fills the write log (and therefore
// who forces its compaction drains) and who eats backpressure stalls.
type TenantLogStats struct {
	// LinesAbsorbed counts cacheline writes the tenant appended to the
	// write log (SkyByte-W path).
	LinesAbsorbed uint64
	// StalledWrites counts the tenant's writes backpressured because
	// both log halves were full while compaction drained.
	StalledWrites uint64
	// RMWFetches counts Base-CSSD write-miss page fetches (the
	// read-modify-write path taken with the log disabled).
	RMWFetches uint64
}

// CompactionStats summarises write-log compactions.
type CompactionStats struct {
	Count     uint64
	TotalTime sim.Time
	Pages     uint64 // pages flushed across all compactions
}

// Mean returns the average compaction duration (the paper reports 146 µs).
func (c CompactionStats) Mean() sim.Time {
	if c.Count == 0 {
		return 0
	}
	return c.TotalTime / sim.Time(c.Count)
}

type fetchWaiter struct {
	t0       sim.Time
	idxLat   sim.Time
	off      uint64
	record   bool
	isWrite  bool
	pageOnly bool   // FetchPage waiter: fires accept once the page lands
	data     []byte // payload for RMW write waiters
	respond  func(ReadMeta)
	accept   func()
}

// fetchState tracks one in-flight page fetch. States are pooled on the
// controller: the flash-completion closure binds once at first allocation
// and survives reuse, and the waiter slice keeps its capacity, so
// steady-state misses don't allocate. A state recycles at the end of
// fetchDone, after it has left the fetches map and every waiter has been
// scheduled.
type fetchState struct {
	next         *fetchState
	lpa          uint64
	expectedDone sim.Time
	waiters      []fetchWaiter
	prefetch     bool
	onData       func(data []byte)
}

// compactOp is one pooled compaction read-merge-write (Fig. 13 L3–L5):
// its read callback binds once at first allocation and survives reuse,
// and the line buffer keeps its capacity. An op recycles as soon as its
// read completes and the write-back is issued.
type compactOp struct {
	next   *compactOp
	lpa    uint64
	lines  []writelog.LineEntry // merged at read completion (TrackData only)
	onRead func(pageData []byte)
}

// respEvt carries a deferred ReadMeta response; pooled per controller and
// dispatched through hRespond, replacing a per-response closure.
type respEvt struct {
	next    *respEvt
	respond func(ReadMeta)
	meta    ReadMeta
}

// hRespond delivers a pooled read response. The event record recycles
// before the callback runs: respond may issue a new request that reuses it.
var hRespond sim.HandlerID

func init() {
	hRespond = sim.RegisterHandler(func(_ uint64, p1, p2 any) {
		c := p1.(*Controller)
		r := p2.(*respEvt)
		respond, meta := r.respond, r.meta
		r.respond = nil
		r.meta = ReadMeta{}
		r.next = c.respFree
		c.respFree = r
		respond(meta)
	})
}

type pendingWrite struct {
	off    uint64
	data   []byte
	record bool
	tenant int
	accept func()
}

// Controller is the SkyByte CXL-SSD controller.
type Controller struct {
	eng  *sim.Engine
	cfg  Config
	arr  *flash.Array
	fl   *ftl.FTL
	dram *dram.DRAM

	cache   *PageCache
	logs    [2]*writelog.Log
	active  int
	fetches map[uint64]*fetchState
	heat    map[uint64]heatEntry // persistent per-flash-page access heat

	fetchFree *fetchState
	respFree  *respEvt

	compacting     bool
	compactStart   sim.Time
	compactPages   []uint64
	compactCursor  int
	compactBusy    int
	compactFree    *compactOp
	onCompactWrite func() // compactOpDone, bound once: every write-back's callback
	pendingWrites  []pendingWrite
	// lineBuf is the reused destination of write-log page traversals
	// (compaction and merges); its contents are consumed before the
	// next traversal.
	lineBuf []writelog.LineEntry

	// Traffic is the flash-level cause-split accounting behind Figs. 18/20.
	// Absorbed lines are booked per tenant only (TenantLog); the system
	// derives Traffic.LinesAbsorbed from that split when it collects.
	Traffic stats.FlashTraffic
	// tenantLog splits write-path activity by the tenant index MemWr
	// receives; the slice grows on demand (solo runs use index 0 only).
	tenantLog []TenantLogStats
	// Compaction summarises background log compaction activity.
	Compaction CompactionStats
	// ReadLocality records the fraction of lines accessed per page while
	// it was cached (Fig. 5), booked when the page leaves the data cache:
	// on eviction and on promotion.
	ReadLocality stats.Distribution
	// WriteLocality records the fraction of dirty lines per page flushed to
	// flash (Fig. 6): Base-CSSD dirty evictions and SkyByte compactions.
	WriteLocality stats.Distribution

	// OnPromoteCandidate, when set, fires as a cached page's access count
	// crosses the migration threshold (§III-C). The migration engine
	// decides and pins via MarkMigrating.
	OnPromoteCandidate func(lpa uint64)
}

// New builds a controller over the given flash array, FTL, and SSD DRAM.
func New(eng *sim.Engine, cfg Config, arr *flash.Array, fl *ftl.FTL, d *dram.DRAM) *Controller {
	c := &Controller{
		eng: eng, cfg: cfg, arr: arr, fl: fl, dram: d,
		fetches: make(map[uint64]*fetchState),
		heat:    make(map[uint64]heatEntry),
	}
	c.onCompactWrite = c.compactOpDone
	c.cache = NewPageCache(cfg.CacheBytes, cfg.CacheWays, cfg.TrackData)
	if cfg.WriteLogEnabled {
		half := cfg.WriteLogBytes / 2 / mem.LineBytes
		if half < 1 {
			half = 1
		}
		c.logs[0] = writelog.New(half, cfg.TrackData)
		c.logs[1] = writelog.New(half, cfg.TrackData)
	}
	return c
}

// Cache exposes the data cache (stats, locality distributions).
func (c *Controller) Cache() *PageCache { return c.cache }

// Logs returns the two write-log halves (nil when disabled).
func (c *Controller) Logs() [2]*writelog.Log { return c.logs }

// respondAt schedules respond(meta) at time t through the pooled
// response path.
func (c *Controller) respondAt(t sim.Time, respond func(ReadMeta), meta ReadMeta) {
	r := c.respFree
	if r == nil {
		r = &respEvt{}
	} else {
		c.respFree = r.next
		r.next = nil
	}
	r.respond = respond
	r.meta = meta
	c.eng.AtH(t, hRespond, 0, c, r)
}

// getFetch pops a pooled fetch state, binding its flash-completion
// callback on first allocation.
func (c *Controller) getFetch(lpa uint64) *fetchState {
	fs := c.fetchFree
	if fs == nil {
		fs = &fetchState{}
		fs.onData = func(data []byte) { c.fetchDone(fs, data) }
	} else {
		c.fetchFree = fs.next
		fs.next = nil
	}
	fs.lpa, fs.expectedDone, fs.prefetch = lpa, 0, false
	return fs
}

func (c *Controller) putFetch(fs *fetchState) {
	clear(fs.waiters)
	fs.waiters = fs.waiters[:0]
	fs.next = c.fetchFree
	c.fetchFree = fs
}

func (c *Controller) activeLog() *writelog.Log { return c.logs[c.active] }
func (c *Controller) otherLog() *writelog.Log  { return c.logs[1-c.active] }

func (c *Controller) indexLatency() sim.Time {
	if c.cfg.WriteLogEnabled {
		return sim.Max(logIndexLatency, cacheIndexLatency)
	}
	return cacheIndexLatency
}

// MemRd serves a cacheline read at device byte offset off. Exactly one of
// respond / hint is eventually called: hint (if non-nil and the trigger
// policy fires) signals SkyByte-Delay and no data will follow.
func (c *Controller) MemRd(off uint64, record bool, respond func(ReadMeta), hint func(est sim.Time)) {
	t0 := c.eng.Now()
	lpa := off >> mem.PageShift
	lineIdx := mem.Addr(off).LineIndex()
	idxLat := c.indexLatency()
	c.bumpHeat(lpa)

	// Writes stalled on compaction backpressure are the newest data for
	// their lines; serve them like a log hit (they sit in the controller's
	// write buffer).
	if len(c.pendingWrites) > 0 {
		for i := len(c.pendingWrites) - 1; i >= 0; i-- {
			if c.pendingWrites[i].off>>mem.LineShift == off>>mem.LineShift {
				data := cloneLine(c.pendingWrites[i].data)
				done := c.dram.Access(mem.Addr(off), false, nil) + idxLat
				c.respondAt(done, respond, ReadMeta{Class: stats.SSDReadHit, Index: idxLat, SSDDRAM: done - t0 - idxLat, Data: data})
				return
			}
		}
	}

	// R1: data cache hit.
	if f := c.cache.Lookup(lpa); f != nil {
		f.TouchRead(lineIdx)
		c.maybePromote(f)
		data := c.frameLine(f, lineIdx)
		done := c.dram.Access(mem.Addr(off), false, nil) + idxLat
		c.respondAt(done, respond, ReadMeta{Class: stats.SSDReadHit, Index: idxLat, SSDDRAM: done - t0 - idxLat, Data: data})
		return
	}
	// R2: write log hit (parallel probe of both halves; newest first).
	if c.cfg.WriteLogEnabled {
		if data, ok := c.logLookup(off >> mem.LineShift); ok {
			done := c.dram.Access(mem.Addr(off), false, nil) + idxLat
			c.respondAt(done, respond, ReadMeta{Class: stats.SSDReadHit, Index: idxLat, SSDDRAM: done - t0 - idxLat, Data: data})
			return
		}
	}
	// R3: miss — fetch the whole page from flash.
	c.missRead(lpa, off, t0, idxLat, record, respond, hint)
}

func (c *Controller) logLookup(lineNo uint64) ([]byte, bool) {
	if d, ok := c.activeLog().Lookup(lineNo); ok {
		return d, true
	}
	if c.compacting {
		if d, ok := c.otherLog().Lookup(lineNo); ok {
			return d, true
		}
	}
	return nil, false
}

func (c *Controller) missRead(lpa, off uint64, t0, idxLat sim.Time, record bool, respond func(ReadMeta), hint func(sim.Time)) {
	fs := c.fetch(lpa)
	// Trigger policy (Algorithm 1 plus the immediate-on-GC rule): the
	// controller sums the latency of the work queued ahead of the fetch —
	// with the die-parallel service model that sum is the fetch's
	// predicted completion. For merged requests it is the remaining time
	// of the fetch already in flight.
	if hint != nil && c.cfg.HintEnabled {
		ch, ok := c.fl.ChannelOf(lpa)
		gc := ok && c.fl.GCActive(ch)
		remaining := fs.expectedDone - t0
		if gc || remaining > c.cfg.HintThreshold {
			hint(remaining)
			return
		}
	}
	fs.waiters = append(fs.waiters, fetchWaiter{t0: t0, idxLat: idxLat, off: off, record: record, respond: respond})
}

// fetch returns lpa's in-flight page fetch, starting a demand fetch
// from flash when none is outstanding.
func (c *Controller) fetch(lpa uint64) *fetchState {
	fs, inFlight := c.fetches[lpa]
	if !inFlight {
		fs = c.getFetch(lpa)
		c.fetches[lpa] = fs
		c.startFetch(fs, false)
	}
	return fs
}

func (c *Controller) startFetch(fs *fetchState, prefetch bool) {
	fs.prefetch = prefetch
	if prefetch {
		c.Traffic.PrefetchReads++
	} else {
		c.Traffic.HostReads++
	}
	fs.expectedDone = c.fl.Read(fs.lpa, fs.onData)
	// Base-CSSD optimisation: prefetch the next page on a demand miss.
	if !prefetch && c.cfg.PrefetchNext {
		next := fs.lpa + 1
		if next < c.fl.LogicalPages() && c.cache.Peek(next) == nil {
			if _, busy := c.fetches[next]; !busy {
				nfs := c.getFetch(next)
				c.fetches[next] = nfs
				c.startFetch(nfs, true)
			}
		}
	}
}

// fetchDone installs the fetched page (merging logged lines, §III-B R3)
// and answers all waiters.
func (c *Controller) fetchDone(fs *fetchState, flashData []byte) {
	delete(c.fetches, fs.lpa)
	flashDone := c.eng.Now()
	// Page fill into SSD DRAM.
	pageOff := mem.Addr(fs.lpa << mem.PageShift)
	fillDone := c.dram.AccessBytes(pageOff, mem.PageBytes, true, nil)

	victim, f, ok := c.cache.Insert(fs.lpa)
	if ok {
		if victim.Valid {
			c.noteReadLocality(victim.Accessed)
			c.evictFrame(victim)
		}
		f.InsertedAt = int64(c.eng.Now())
		if f.Data != nil {
			copy(f.Data, flashData)
		}
		c.mergeLogInto(f)
	}
	for _, w := range fs.waiters {
		if w.pageOnly {
			c.eng.At(fillDone, w.accept)
			continue
		}
		if w.isWrite {
			if f != nil && ok {
				f.TouchWrite(mem.Addr(w.off).LineIndex(), w.data)
				c.maybePromote(f)
			}
			done := sim.Max(fillDone, c.dram.Access(mem.Addr(w.off), true, nil))
			c.eng.At(done, w.accept)
			continue
		}
		var data []byte
		if f != nil && ok {
			f.TouchRead(mem.Addr(w.off).LineIndex())
			c.maybePromote(f)
			data = c.frameLine(f, mem.Addr(w.off).LineIndex())
		}
		flashWait := flashDone - w.t0 - w.idxLat
		if flashWait < 0 {
			flashWait = 0
		}
		done := sim.Max(fillDone, c.dram.Access(mem.Addr(w.off), false, nil))
		c.respondAt(done, w.respond, ReadMeta{
			Class:   stats.SSDReadMiss,
			Index:   w.idxLat,
			Flash:   flashWait,
			SSDDRAM: done - flashDone,
			Data:    data,
		})
	}
	c.putFetch(fs)
}

// mergeLogInto applies logged lines of the frame's page (older half first,
// active half last so newest data wins).
func (c *Controller) mergeLogInto(f *PageFrame) {
	if !c.cfg.WriteLogEnabled || f.Data == nil {
		return
	}
	if c.compacting {
		c.applyLog(c.otherLog(), f)
	}
	c.applyLog(c.activeLog(), f)
}

func (c *Controller) applyLog(l *writelog.Log, f *PageFrame) {
	c.lineBuf = l.AppendPageLines(c.lineBuf[:0], f.LPA)
	for _, le := range c.lineBuf {
		if le.Data != nil {
			copy(f.Data[int(le.Offset)*mem.LineBytes:], le.Data)
		}
	}
}

func (c *Controller) frameLine(f *PageFrame, lineIdx uint) []byte {
	if f.Data == nil {
		return nil
	}
	out := make([]byte, mem.LineBytes)
	copy(out, f.Data[int(lineIdx)*mem.LineBytes:])
	return out
}

// evictFrame handles a data-cache eviction. With the write log, eviction is
// free (dirty lines live in the log); in Base-CSSD a dirty page writes back
// to flash — the write-amplification source §II-C identifies.
func (c *Controller) evictFrame(v PageFrame) {
	if c.cfg.WriteLogEnabled || !v.Dirty() {
		return
	}
	c.noteWriteLocality(bits.OnesCount64(v.DirtyMsk))
	c.Traffic.HostPrograms++
	c.fl.Write(v.LPA, v.Data, nil)
}

func (c *Controller) noteReadLocality(accessed uint64) {
	if c.cfg.TrackLocality {
		c.ReadLocality.Add(float64(bits.OnesCount64(accessed)) / float64(mem.LinesPerPage))
	}
}

func (c *Controller) noteWriteLocality(dirtyLines int) {
	if c.cfg.TrackLocality {
		c.WriteLocality.Add(float64(dirtyLines) / float64(mem.LinesPerPage))
	}
}

// tenantAcct returns the per-tenant write accounting slot for index n,
// growing the slice on demand.
func (c *Controller) tenantAcct(n int) *TenantLogStats {
	if n < 0 {
		n = 0
	}
	for len(c.tenantLog) <= n {
		c.tenantLog = append(c.tenantLog, TenantLogStats{})
	}
	return &c.tenantLog[n]
}

// TenantLog returns the per-tenant write-path accounting, indexed by
// the tenant values MemWr received. The returned slice is a copy.
func (c *Controller) TenantLog() []TenantLogStats {
	return append([]TenantLogStats(nil), c.tenantLog...)
}

// MemWr absorbs a cacheline writeback at device byte offset off; accepted
// fires when the device has taken ownership (the host's writeback credit
// returns then). tenant attributes the write to a tenant group for the
// per-tenant log accounting (0 in solo runs).
func (c *Controller) MemWr(off uint64, data []byte, record bool, tenant int, accepted func()) {
	lpa := off >> mem.PageShift
	lineIdx := mem.Addr(off).LineIndex()
	c.bumpHeat(lpa)

	if !c.cfg.WriteLogEnabled {
		// Base-CSSD: page-granular read-modify-write cache.
		if f := c.cache.Lookup(lpa); f != nil {
			f.TouchWrite(lineIdx, data)
			c.maybePromote(f)
			done := c.dram.Access(mem.Addr(off), true, nil)
			c.eng.At(done, accepted)
			return
		}
		// Write miss: fetch the page first (RMW), then dirty the line.
		c.tenantAcct(tenant).RMWFetches++
		fs := c.fetch(lpa)
		fs.waiters = append(fs.waiters, fetchWaiter{
			t0: c.eng.Now(), idxLat: cacheIndexLatency, off: off,
			record: record, isWrite: true, data: cloneLine(data), accept: accepted,
		})
		return
	}

	// SkyByte-W: W1 append to the active log half.
	if c.activeLog().Full() {
		c.switchLogs()
	}
	if c.activeLog().Full() {
		// Both halves full: compaction is still draining. Backpressure the
		// host until space frees.
		c.tenantAcct(tenant).StalledWrites++
		c.pendingWrites = append(c.pendingWrites, pendingWrite{off: off, data: cloneLine(data), record: record, tenant: tenant, accept: accepted})
		return
	}
	c.activeLog().Append(off>>mem.LineShift, data)
	c.tenantAcct(tenant).LinesAbsorbed++
	// W2: parallel update of the data cache copy.
	if f := c.cache.Peek(lpa); f != nil {
		f.TouchWrite(lineIdx, data)
		c.maybePromote(f)
	}
	// W3 (index update) is charged within the DRAM write.
	done := c.dram.Access(mem.Addr(off), true, nil)
	c.eng.At(done, accepted)
}

func cloneLine(d []byte) []byte {
	if d == nil {
		return nil
	}
	out := make([]byte, mem.LineBytes)
	copy(out, d)
	return out
}

// --- log compaction (Fig. 13, L1–L5) ---

func (c *Controller) switchLogs() {
	if c.compacting {
		return
	}
	old := c.activeLog()
	c.active = 1 - c.active
	c.compacting = true
	c.compactStart = c.eng.Now()
	c.compactPages = old.Pages() // L1: first-level table traversal
	c.compactCursor = 0
	c.compactWave()
}

// compactWave flushes the next batch of pages, bounded per channel so
// compaction stays in the background rather than monopolising the queues.
func (c *Controller) compactWave() {
	old := c.otherLog()
	budget := compactWavePerChannel * c.arr.Geo.Channels
	if budget < 1 {
		budget = 1
	}
	for c.compactCursor < len(c.compactPages) && c.compactBusy < budget {
		lpa := c.compactPages[c.compactCursor]
		c.compactCursor++
		c.lineBuf = old.AppendPageLines(c.lineBuf[:0], lpa) // L4 source
		lines := c.lineBuf
		if len(lines) == 0 {
			continue // invalidated (e.g. migrated away)
		}
		c.Compaction.Pages++
		c.Traffic.LinesCoalesced += uint64(len(lines))
		c.noteWriteLocality(len(lines))
		c.compactBusy++
		if f := c.cache.Peek(lpa); f != nil {
			// L2: the cached copy is current (W2 kept it in sync) — flush it.
			c.Traffic.CompactWrites++
			c.fl.Write(lpa, f.Data, c.onCompactWrite)
			continue
		}
		// L3: load into the coalescing buffer, L4 merge, L5 write back.
		c.Traffic.CompactReads++
		op := c.getCompactOp(lpa)
		if c.cfg.TrackData {
			op.lines = append(op.lines, lines...)
		}
		c.fl.Read(lpa, op.onRead)
	}
	if c.compactBusy == 0 {
		c.finishCompaction()
	}
}

// getCompactOp pops a pooled compaction op, binding its read callback on
// first allocation.
func (c *Controller) getCompactOp(lpa uint64) *compactOp {
	op := c.compactFree
	if op == nil {
		op = &compactOp{}
		op.onRead = func(pageData []byte) { c.compactReadDone(op, pageData) }
	} else {
		c.compactFree = op.next
		op.next = nil
	}
	op.lpa = lpa
	return op
}

// compactReadDone merges the op's logged lines into the page just read
// and writes it back; the op recycles before the write is issued.
func (c *Controller) compactReadDone(op *compactOp, pageData []byte) {
	lpa := op.lpa
	page := c.mergeLines(pageData, op.lines)
	clear(op.lines)
	op.lines = op.lines[:0]
	op.next = c.compactFree
	c.compactFree = op
	c.Traffic.CompactWrites++
	c.fl.Write(lpa, page, c.onCompactWrite)
}

func (c *Controller) mergeLines(pageData []byte, lines []writelog.LineEntry) []byte {
	if !c.cfg.TrackData {
		return nil
	}
	merged := make([]byte, mem.PageBytes)
	copy(merged, pageData)
	for _, le := range lines {
		if le.Data != nil {
			copy(merged[int(le.Offset)*mem.LineBytes:], le.Data)
		}
	}
	return merged
}

func (c *Controller) compactOpDone() {
	c.compactBusy--
	if c.compactBusy == 0 {
		if c.compactCursor < len(c.compactPages) {
			c.compactWave()
		} else {
			c.finishCompaction()
		}
	}
}

func (c *Controller) finishCompaction() {
	c.Compaction.Count++
	c.Compaction.TotalTime += c.eng.Now() - c.compactStart
	c.otherLog().Reset()
	c.compacting = false
	c.compactPages = nil
	// Drain writes that stalled while both halves were full.
	pend := c.pendingWrites
	c.pendingWrites = nil
	for _, pw := range pend {
		c.MemWr(pw.off, pw.data, pw.record, pw.tenant, pw.accept)
	}
}

// --- migration support (§III-C) ---

type heatEntry struct {
	epoch uint32
	count uint32
}

// bumpHeat increments lpa's persistent access counter, lazily halving it
// per elapsed decay epoch, and returns the current heat.
func (c *Controller) bumpHeat(lpa uint64) uint32 {
	if !c.cfg.MigrationEnabled {
		return 0
	}
	cur := uint32(c.eng.Now() / heatDecayInterval)
	e := c.heat[lpa]
	if e.epoch < cur {
		shift := cur - e.epoch
		if shift > 31 {
			shift = 31
		}
		e.count >>= shift
		e.epoch = cur
	}
	e.count++
	c.heat[lpa] = e
	return e.count
}

// ResetHeat clears a page's heat (after promotion or demotion, so it must
// re-earn hotness).
func (c *Controller) ResetHeat(lpa uint64) { delete(c.heat, lpa) }

func (c *Controller) maybePromote(f *PageFrame) {
	if !c.cfg.MigrationEnabled || f.Migrating || f.Nominated || c.OnPromoteCandidate == nil {
		return
	}
	if c.heat[f.LPA].count < c.cfg.MigrationThreshold {
		return
	}
	if c.eng.Now()-sim.Time(f.InsertedAt) < c.cfg.MigrationMinResidency {
		return
	}
	f.Nominated = true
	c.OnPromoteCandidate(f.LPA)
}

// FetchPage ensures lpa's page is resident in the data cache, fetching it
// from flash if needed, then fires done. TPP-style promotion (which picks
// pages regardless of residency) and AstriFlash's host page cache use this
// page-granular path.
func (c *Controller) FetchPage(lpa uint64, done func()) {
	if c.cache.Peek(lpa) != nil {
		done()
		return
	}
	fs := c.fetch(lpa)
	fs.waiters = append(fs.waiters, fetchWaiter{t0: c.eng.Now(), off: lpa << mem.PageShift, pageOnly: true, accept: done})
}

// MarkMigrating pins a cached page for promotion; reports false if the
// page is no longer resident (the candidate evaporated).
func (c *Controller) MarkMigrating(lpa uint64) bool {
	f := c.cache.Peek(lpa)
	if f == nil {
		return false
	}
	f.Migrating = true
	return true
}

// FinishMigration completes a promotion: it returns the page's current
// content (frame merged with any logged lines), drops the frame (booking
// its read locality), voids the log index entries, and trims the stale
// flash mapping.
func (c *Controller) FinishMigration(lpa uint64) (data []byte, ok bool) {
	f := c.cache.Peek(lpa)
	if f == nil {
		return nil, false
	}
	c.mergeLogInto(f)
	if f.Data != nil {
		data = make([]byte, mem.PageBytes)
		copy(data, f.Data)
	}
	was, _ := c.cache.Drop(lpa)
	c.noteReadLocality(was.Accessed)
	if c.cfg.WriteLogEnabled {
		c.activeLog().InvalidatePage(lpa)
		if c.compacting {
			c.otherLog().InvalidatePage(lpa)
		}
	}
	c.fl.Trim(lpa)
	c.ResetHeat(lpa)
	return data, true
}

// WritePage programs a full page through the FTL, bypassing the write log —
// the demotion path ("we then allocate a new page in the CXL memory space
// and perform the page copy"). The demoted page's heat resets so it must
// re-earn promotion.
func (c *Controller) WritePage(lpa uint64, data []byte, accepted func()) {
	c.Traffic.DemoteWrites++
	c.ResetHeat(lpa)
	c.fl.Write(lpa, data, accepted)
}
