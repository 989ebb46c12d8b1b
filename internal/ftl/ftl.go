// Package ftl implements the SSD's flash translation layer: the LPA→PPA
// page mapping, out-of-place writes striped across channels, and greedy
// garbage collection (paper §II, Table II: threshold 80 %).
//
// Metadata (mappings, block states) updates at enqueue time; the flash
// array models when the underlying operations actually occupy the channels.
// GC traffic therefore blocks demand requests on its channel — the effect
// Algorithm 1's latency estimator and the immediate-context-switch-on-GC
// rule react to — without the deadlock hazards of an asynchronous metadata
// state machine (see DESIGN.md §1 on the "# of Blocks to Erase"
// interpretation).
package ftl

import (
	"fmt"

	"skybyte/internal/flash"
	"skybyte/internal/mem"
	"skybyte/internal/sim"
	"skybyte/internal/trace"
)

// Config tunes the FTL.
type Config struct {
	// UsableRatio is the fraction of physical pages exposed as logical
	// capacity; the rest is over-provisioning for GC.
	UsableRatio float64
	// GCTriggerFree starts GC on a channel when its free-block ratio drops
	// below this value. Table II's "Threshold: 80%" utilisation = 0.20 free.
	GCTriggerFree float64
	// GCReplenishFree is the free-block ratio GC restores before stopping.
	GCReplenishFree float64
}

// LogicalPages is the logical capacity, in pages, an FTL with this
// configuration exposes over geo.
func (c Config) LogicalPages(geo flash.Geometry) uint64 {
	return uint64(float64(geo.TotalPages()) * c.UsableRatio)
}

// Stats counts FTL-level activity.
type Stats struct {
	UserPrograms  uint64
	GCPrograms    uint64
	GCReads       uint64
	Erases        uint64
	GCInvocations uint64
}

type blockState uint8

const (
	blockFree blockState = iota
	blockOpen
	blockFull
)

type blockMeta struct {
	state    blockState
	valid    int32
	nextPage int32 // next programmable page offset when open
}

// slot is one mapping-table entry: a page number plus one, so the zeroed
// memory make returns is already the all-unmapped table.
type slot uint32

const unmapped slot = 0

// maxPages is the most physical pages a geometry may have: every page
// number plus one then fits a slot, below its all-ones value.
const maxPages = 1<<32 - 2

// toSlot encodes a page number.
func toSlot(page uint64) slot { return slot(page + 1) }

// page decodes s; ok is false for an unmapped slot.
func (s slot) page() (page uint64, ok bool) { return uint64(s) - 1, s != unmapped }

// CheckGeometry reports whether the mapping tables can address every
// physical page of geo.
func CheckGeometry(geo flash.Geometry) error {
	if n := geo.TotalPages(); n > maxPages {
		return fmt.Errorf("ftl: %d physical pages exceed the %d a 32-bit mapping table addresses", n, uint64(maxPages))
	}
	return nil
}

// FTL is the translation layer bound to one flash array.
type FTL struct {
	eng *sim.Engine
	arr *flash.Array
	geo flash.Geometry
	cfg Config

	logicalPages uint64
	l2p          []slot
	p2l          []slot
	blocks       []blockMeta
	freeBlocks   [][]uint32 // per-channel stacks
	open         []int64    // per-channel open block (-1 = none)
	gcBusyUntil  []sim.Time
	inGC         []bool
	nextChan     int
	// relocs holds the valid pages GC is moving, as a stack: each
	// gcChannel call appends its victim's pages above its caller's and
	// truncates back on return, so a nested emergency GC never
	// overwrites pages an outer call has yet to rewrite.
	relocs []reloc

	stats Stats
}

// reloc is one valid page a GC victim gives up: its lpa and, when the
// array tracks data, its content.
type reloc struct {
	lpa  uint64
	data []byte
}

// hUnmappedRead completes a read of an unmapped page with nil data.
var hUnmappedRead = sim.RegisterHandler(func(_ uint64, p1, _ any) {
	p1.(func([]byte))(nil)
})

// New builds an FTL over arr.
func New(eng *sim.Engine, arr *flash.Array, cfg Config) *FTL {
	geo := arr.Geo
	if err := CheckGeometry(geo); err != nil {
		panic(err)
	}
	logical := cfg.LogicalPages(geo)
	f := &FTL{
		eng:          eng,
		arr:          arr,
		geo:          geo,
		cfg:          cfg,
		logicalPages: logical,
		l2p:          make([]slot, logical),
		p2l:          make([]slot, geo.TotalPages()),
		blocks:       make([]blockMeta, geo.TotalBlocks()),
		freeBlocks:   make([][]uint32, geo.Channels),
		open:         make([]int64, geo.Channels),
		gcBusyUntil:  make([]sim.Time, geo.Channels),
		inGC:         make([]bool, geo.Channels),
	}
	for b := geo.TotalBlocks() - 1; b >= 0; b-- {
		ch := geo.ChannelOfBlock(uint32(b))
		f.freeBlocks[ch] = append(f.freeBlocks[ch], uint32(b))
	}
	for ch := range f.open {
		f.open[ch] = -1
	}
	return f
}

// LogicalPages returns the exposed logical capacity in pages.
func (f *FTL) LogicalPages() uint64 { return f.logicalPages }

// LogicalBytes returns the exposed logical capacity in bytes.
func (f *FTL) LogicalBytes() uint64 { return f.logicalPages * mem.PageBytes }

// Stats returns a copy of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// Translate returns the physical page backing lpa.
func (f *FTL) Translate(lpa uint64) (ppa uint64, ok bool) {
	if lpa >= f.logicalPages {
		panic(fmt.Sprintf("ftl: lpa %d beyond logical capacity %d", lpa, f.logicalPages))
	}
	p, ok := f.l2p[lpa].page()
	if !ok {
		return 0, false
	}
	return p, true
}

// ChannelOf returns the channel that will serve a read of lpa (Algorithm 1
// line 2–3), and ok=false if the page is unmapped (no flash access needed).
func (f *FTL) ChannelOf(lpa uint64) (ch int, ok bool) {
	ppa, ok := f.Translate(lpa)
	if !ok {
		return 0, false
	}
	return f.geo.ChannelOfPPA(ppa), true
}

// GCActive reports whether GC traffic is still draining on the channel;
// the paper triggers an immediate context switch in that case.
func (f *FTL) GCActive(ch int) bool { return f.eng.Now() < f.gcBusyUntil[ch] }

// Read enqueues a flash read of lpa's page and returns its predicted
// completion time. Unmapped pages complete on the next event cycle with
// nil data (a fresh page reads as zeros) — always asynchronously, so
// callers can register waiters after issuing.
func (f *FTL) Read(lpa uint64, done func(data []byte)) sim.Time {
	ppa, ok := f.Translate(lpa)
	if !ok {
		now := f.eng.Now()
		if done != nil {
			f.eng.AfterH(0, hUnmappedRead, 0, done, nil)
		}
		return now
	}
	return f.arr.Read(ppa, done)
}

// Write programs a new physical page for lpa (out-of-place), invalidating
// any previous mapping, and triggers GC if the target channel runs low on
// free blocks. Writes stripe round-robin across channels to exploit
// parallelism (§III-B: "distributes writes across multiple channels"), but
// a channel whose blocks are all fully valid is skipped — it cannot accept
// data until invalidations free space there.
func (f *FTL) Write(lpa uint64, data []byte, done func()) {
	for try := 0; try < f.geo.Channels; try++ {
		ch := f.nextChan
		f.nextChan = (f.nextChan + 1) % f.geo.Channels
		if f.channelWritable(ch) {
			f.writeTo(ch, lpa, data, done, false)
			return
		}
	}
	panic("ftl: no writable channel (device over capacity)")
}

// channelWritable reports whether ch can accept one more page program:
// an open block with space, a free block, or a reclaimable victim.
func (f *FTL) channelWritable(ch int) bool {
	if ob := f.open[ch]; ob >= 0 && int(f.blocks[ob].nextPage) < f.geo.PagesPerBlock {
		return true
	}
	if len(f.freeBlocks[ch]) > 0 {
		return true
	}
	return f.pickVictim(ch) >= 0
}

func (f *FTL) writeTo(ch int, lpa uint64, data []byte, done func(), gc bool) {
	ppa := f.allocPage(ch)
	f.invalidate(lpa)
	f.mapPage(lpa, ppa)
	if gc {
		f.stats.GCPrograms++
	} else {
		f.stats.UserPrograms++
	}
	f.arr.Program(ppa, data, done)
	f.maybeGC(ch)
}

// mapPage points unmapped lpa at the freshly allocated ppa.
func (f *FTL) mapPage(lpa, ppa uint64) {
	f.l2p[lpa] = toSlot(ppa)
	f.p2l[ppa] = toSlot(lpa)
	f.blocks[f.geo.BlockOfPPA(ppa)].valid++
}

func (f *FTL) invalidate(lpa uint64) {
	old, ok := f.l2p[lpa].page()
	if !ok {
		return
	}
	f.l2p[lpa] = unmapped
	f.p2l[old] = unmapped
	f.blocks[f.geo.BlockOfPPA(old)].valid--
}

// Trim invalidates lpa without writing a replacement (used when a page
// migrates to host DRAM permanently, or for tests).
func (f *FTL) Trim(lpa uint64) { f.invalidate(lpa) }

func (f *FTL) allocPage(ch int) uint64 {
	for {
		if ob := f.open[ch]; ob >= 0 {
			m := &f.blocks[ob]
			ppa := uint64(ob)*uint64(f.geo.PagesPerBlock) + uint64(m.nextPage)
			m.nextPage++
			if int(m.nextPage) == f.geo.PagesPerBlock {
				m.state = blockFull
				f.open[ch] = -1
			}
			return ppa
		}
		if len(f.freeBlocks[ch]) == 0 {
			// Emergency GC: reclaim synchronously (metadata-wise) right
			// now. Its relocations may consume what it frees, so loop and
			// re-check rather than assuming a block became available.
			if !f.gcChannel(ch, 1) {
				panic(fmt.Sprintf("ftl: channel %d out of blocks and nothing to reclaim", ch))
			}
			continue
		}
		stack := f.freeBlocks[ch]
		b := stack[len(stack)-1]
		f.freeBlocks[ch] = stack[:len(stack)-1]
		m := &f.blocks[b]
		m.state = blockOpen
		m.nextPage = 0
		f.open[ch] = int64(b)
	}
}

func (f *FTL) blocksPerChannel() int { return f.geo.TotalBlocks() / f.geo.Channels }

func (f *FTL) maybeGC(ch int) {
	if f.inGC[ch] {
		return
	}
	trigger := int(f.cfg.GCTriggerFree * float64(f.blocksPerChannel()))
	if len(f.freeBlocks[ch]) >= trigger {
		return
	}
	target := int(f.cfg.GCReplenishFree*float64(f.blocksPerChannel())) - len(f.freeBlocks[ch])
	if target < 1 {
		target = 1
	}
	f.stats.GCInvocations++
	f.gcChannel(ch, target)
}

// gcChannel reclaims up to want blocks on channel ch, returning whether at
// least one block was reclaimed. Victim selection is greedy (fewest valid
// pages among full blocks). Each victim is reclaimed erase-first: its valid
// pages are captured and invalidated, the block rejoins the free pool, and
// the pages are then rewritten within the channel — so reclamation can
// never strand a channel that still has reclaimable space. The flash queue
// sees the same read/program/erase work either way.
func (f *FTL) gcChannel(ch, want int) bool {
	if !f.inGC[ch] {
		f.inGC[ch] = true
		defer func() { f.inGC[ch] = false }()
	}
	reclaimed := 0
	for reclaimed < want {
		victim := f.pickVictim(ch)
		if victim < 0 {
			break
		}
		vm := &f.blocks[victim]
		first := uint64(victim) * uint64(f.geo.PagesPerBlock)
		base := len(f.relocs)
		for off := uint64(0); off < uint64(f.geo.PagesPerBlock); off++ {
			ppa := first + off
			lpa, ok := f.p2l[ppa].page()
			if !ok {
				continue
			}
			f.stats.GCReads++
			var data []byte
			if f.arr.TrackData {
				data = append([]byte(nil), f.arr.PeekData(ppa)...)
			}
			f.arr.Read(ppa, nil)
			f.invalidate(lpa)
			f.relocs = append(f.relocs, reloc{lpa: lpa, data: data})
		}
		if vm.valid != 0 {
			panic("ftl: victim still has valid pages after relocation")
		}
		vm.state = blockFree
		vm.nextPage = 0
		f.stats.Erases++
		f.arr.Erase(uint32(victim), nil)
		f.freeBlocks[ch] = append(f.freeBlocks[ch], uint32(victim))
		// Index, not range: a nested emergency GC inside writeTo may grow
		// (and move) f.relocs above this call's entries.
		for i := base; i < len(f.relocs); i++ {
			r := f.relocs[i]
			f.writeTo(ch, r.lpa, r.data, nil, true)
		}
		clear(f.relocs[base:])
		f.relocs = f.relocs[:base]
		reclaimed++
	}
	if reclaimed > 0 {
		// The queue must drain the reads/programs/erases just enqueued.
		busy := f.arr.QueueBusyUntil(ch)
		if busy > f.gcBusyUntil[ch] {
			f.gcBusyUntil[ch] = busy
		}
	}
	return reclaimed > 0
}

// pickVictim returns the full block on ch with the fewest valid pages that
// is not completely valid (erasing a fully valid block gains nothing), or
// -1 if none exists.
func (f *FTL) pickVictim(ch int) int64 {
	best := int64(-1)
	bestValid := int32(f.geo.PagesPerBlock)
	for b := ch; b < f.geo.TotalBlocks(); b += f.geo.Channels {
		m := &f.blocks[b]
		if m.state != blockFull {
			continue
		}
		if m.valid < bestValid {
			bestValid = m.valid
			best = int64(b)
		}
	}
	if bestValid == int32(f.geo.PagesPerBlock) {
		return -1
	}
	return best
}

// MappedPages returns how many logical pages currently have a mapping.
func (f *FTL) MappedPages() uint64 {
	var n uint64
	for _, p := range f.l2p {
		if p != unmapped {
			n++
		}
	}
	return n
}

// CheckInvariants verifies internal consistency (tests): l2p and p2l are
// inverse, per-block valid counts match the mapping, and block accounting
// covers every block exactly once.
func (f *FTL) CheckInvariants() error {
	valid := make([]int32, len(f.blocks))
	for lpa, s := range f.l2p {
		p, ok := s.page()
		if !ok {
			continue
		}
		if f.p2l[p] != toSlot(uint64(lpa)) {
			return fmt.Errorf("l2p/p2l mismatch at lpa %d", lpa)
		}
		valid[f.geo.BlockOfPPA(p)]++
	}
	for b := range f.blocks {
		if f.blocks[b].valid != valid[b] {
			return fmt.Errorf("block %d valid count %d, recomputed %d", b, f.blocks[b].valid, valid[b])
		}
	}
	seen := make([]bool, len(f.blocks))
	for ch, stack := range f.freeBlocks {
		for _, b := range stack {
			if seen[b] {
				return fmt.Errorf("block %d on multiple free lists", b)
			}
			seen[b] = true
			if f.blocks[b].state != blockFree {
				return fmt.Errorf("block %d on free list of ch %d but state %d", b, ch, f.blocks[b].state)
			}
		}
	}
	return nil
}

// Precondition pre-maps fillRatio of the logical space sequentially and
// then rewrites rewriteRatio of those pages at random, creating scattered
// invalid pages so GC triggers early in a run (paper §VI-A: "we
// precondition the SSD to ensure garbage collections will be triggered").
// Metadata-only: no flash timing is charged. It must run on a fresh FTL,
// before any write, and panics otherwise.
func (f *FTL) Precondition(fillRatio, rewriteRatio float64, seed uint64) {
	for ch, stack := range f.freeBlocks {
		if len(stack) != f.blocksPerChannel() {
			panic(fmt.Sprintf("ftl: Precondition on an FTL already in use (channel %d has %d of %d blocks free); call it once, before any write",
				ch, len(stack), f.blocksPerChannel()))
		}
	}
	n := uint64(fillRatio * float64(f.logicalPages))
	f.fill(n)
	f.rewrite(n, rewriteRatio, seed)
}

// rewrite remaps ratio×n pages drawn at random from lpas 0..n-1.
func (f *FTL) rewrite(n uint64, ratio float64, seed uint64) {
	rng := trace.NewRNG(seed)
	rewrites := uint64(ratio * float64(n))
	for i := uint64(0); i < rewrites && n > 0; i++ {
		lpa := rng.Uint64n(n)
		ch := f.nextChan
		f.nextChan = (f.nextChan + 1) % f.geo.Channels
		for try := 0; try < f.geo.Channels && !f.channelWritable(ch); try++ {
			ch = f.nextChan
			f.nextChan = (f.nextChan + 1) % f.geo.Channels
		}
		// Metadata-only rewrite; may perform metadata GC if space is tight.
		ppa := f.allocPageQuiet(ch)
		f.invalidate(lpa)
		f.mapPage(lpa, ppa)
	}
}

// fill maps lpas 0..n-1 on a fresh FTL exactly as n round-robin
// allocPage calls would: lpa k goes to channel (nextChan+k) mod Channels,
// each channel filling the blocks it pops in page order. Nothing is mapped
// yet, so it walks each channel a block at a time and writes a block's
// metadata once.
func (f *FTL) fill(n uint64) {
	chans, ppb := uint64(f.geo.Channels), uint64(f.geo.PagesPerBlock)
	for ch := range f.freeBlocks {
		for lpa := (uint64(ch) + chans - uint64(f.nextChan)) % chans; lpa < n; {
			stack := f.freeBlocks[ch]
			if len(stack) == 0 {
				panic(fmt.Sprintf("ftl: precondition fill of %d pages ran out of free blocks on channel %d (%d blocks)", n, ch, f.blocksPerChannel()))
			}
			b := stack[len(stack)-1]
			f.freeBlocks[ch] = stack[:len(stack)-1]
			first, off := uint64(b)*ppb, uint64(0)
			for ; off < ppb && lpa < n; off, lpa = off+1, lpa+chans {
				f.l2p[lpa] = toSlot(first + off)
				f.p2l[first+off] = toSlot(lpa)
			}
			m := &f.blocks[b]
			m.valid = int32(off)
			m.nextPage = int32(off)
			m.state = blockFull
			if off < ppb {
				m.state = blockOpen
				f.open[ch] = int64(b)
			}
		}
	}
	f.nextChan = int((uint64(f.nextChan) + n) % chans)
}

// allocPageQuiet allocates without enqueuing flash ops for any emergency
// GC (preconditioning must not charge simulated time). It relocates valid
// pages metadata-only.
func (f *FTL) allocPageQuiet(ch int) uint64 {
	if f.open[ch] < 0 && len(f.freeBlocks[ch]) == 0 {
		victim := f.pickVictim(ch)
		if victim < 0 {
			panic("ftl: precondition exhausted channel")
		}
		first := uint64(victim) * uint64(f.geo.PagesPerBlock)
		// Temporarily free the victim so relocation targets elsewhere.
		var moved []uint64
		for off := uint64(0); off < uint64(f.geo.PagesPerBlock); off++ {
			if lpa, ok := f.p2l[first+off].page(); ok {
				moved = append(moved, lpa)
			}
		}
		for _, lpa := range moved {
			f.invalidate(lpa)
		}
		f.blocks[victim].state = blockFree
		f.blocks[victim].nextPage = 0
		f.freeBlocks[ch] = append(f.freeBlocks[ch], uint32(victim))
		for _, lpa := range moved {
			f.mapPage(lpa, f.allocPageQuiet(ch))
		}
	}
	return f.allocPage(ch)
}
