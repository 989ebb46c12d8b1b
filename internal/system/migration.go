package system

import (
	"skybyte/internal/core"
	"skybyte/internal/cpu"
	"skybyte/internal/cxl"
	"skybyte/internal/fleet"
	"skybyte/internal/mem"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
)

// pageBytes is one page moved over the link as 64 cacheline transfers.
const pageBytes = mem.LinesPerPage * cxl.DataBytes

// Page movement between the tiers — adaptive and TPP promotion,
// demotion, AstriFlash's host page cache and fleet tier migration —
// runs through pooled records shaped like readTxn: each record binds
// its continuations once, at first allocation, and its last
// continuation recycles it before acting on the result, so moving a
// page allocates nothing once the pools are warm.

// Typed handlers (sim.RegisterHandler contract: init-time only).
var (
	// hShootdown is the TLB shootdown after a promotion's PTE update: it
	// interrupts every core.
	hShootdown sim.HandlerID
	// hTPPScan is the TPP sampler's periodic scan.
	hTPPScan sim.HandlerID
)

func init() {
	hShootdown = sim.RegisterHandler(func(_ uint64, p1, _ any) {
		for _, c := range p1.(*System).cores {
			c.InjectStall(tlbShootdown)
		}
	})
	hTPPScan = sim.RegisterHandler(func(_ uint64, p1, _ any) {
		p1.(*System).tppScan()
	})
}

// promotion carries one page from the SSD DRAM to host DRAM: an
// adaptive candidate after its MSI-X interrupt (§III-C), or a TPP
// candidate after its page fetch (§VI-H).
type promotion struct {
	next *promotion
	s    *System
	lpa  uint64
	ctrl *core.Controller // TPP: the controller the page was fetched from

	raised  func() // adaptive: the MSI-X interrupt was serviced
	fetched func() // TPP: the page is in the SSD DRAM
	landed  func() // the page copy reached host DRAM
}

func (s *System) getPromotion(lpa uint64) *promotion {
	x := s.promoteFree
	if x != nil {
		s.promoteFree = x.next
		x.next = nil
	} else {
		x = &promotion{s: s}
		x.raised = func() { x.s.sendToHost(x.lpa, pageBytes, x.landed) }
		x.fetched = func() {
			sys, lpa := x.s, x.lpa
			if !x.ctrl.MarkMigrating(lpa) {
				sys.putPromotion(x)
				sys.plb.Complete(lpa)
				return
			}
			sys.sendToHost(lpa, pageBytes, x.landed)
		}
		x.landed = func() {
			sys, lpa := x.s, x.lpa
			sys.putPromotion(x)
			sys.completePromotion(lpa)
			// Adaptive promotions serialise behind the MSI-X handler;
			// TPP's never queue, so for them promoting is already false
			// and the queue is empty.
			sys.promoting = false
			sys.drainPromotions()
		}
	}
	x.lpa = lpa
	return x
}

func (s *System) putPromotion(x *promotion) {
	x.ctrl = nil
	x.next = s.promoteFree
	s.promoteFree = x
}

// pageWrite moves one page host→device and programs it through its
// owner's FTL: a demotion (§III-C) or an AstriFlash dirty victim.
type pageWrite struct {
	next    *pageWrite
	s       *System
	lpa     uint64
	arrived func()
}

// writePage sends lpa's page to its owning device, which programs it.
func (s *System) writePage(lpa uint64) {
	x := s.pageWriteFree
	if x != nil {
		s.pageWriteFree = x.next
		x.next = nil
	} else {
		x = &pageWrite{s: s}
		x.arrived = func() {
			sys, lpa := x.s, x.lpa
			x.next = sys.pageWriteFree
			sys.pageWriteFree = x
			sys.ctrlFor(lpa).WritePage(lpa, nil, nil)
		}
	}
	x.lpa = lpa
	s.sendToDevice(lpa, pageBytes, x.arrived)
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
	if s.promoteHead > 0 && len(s.promoteQ) == cap(s.promoteQ) {
		// Reuse the served prefix before append would grow the queue.
		n := copy(s.promoteQ, s.promoteQ[s.promoteHead:])
		s.promoteQ, s.promoteHead = s.promoteQ[:n], 0
	}
	s.promoteQ = append(s.promoteQ, lpa)
	s.drainPromotions()
}

func (s *System) drainPromotions() {
	if s.promoting || s.promoteHead == len(s.promoteQ) {
		return
	}
	s.promoting = true
	lpa := s.promoteQ[s.promoteHead]
	s.promoteHead++
	if s.promoteHead == len(s.promoteQ) {
		s.promoteQ, s.promoteHead = s.promoteQ[:0], 0
	}
	// MSI-X interrupt to the host, then the OS allocates a physical page
	// and the 64 cachelines copy over the CXL link.
	s.Eng.After(msixCost, s.getPromotion(lpa).raised)
}

func (s *System) completePromotion(lpa uint64) {
	if _, ok := s.ctrlFor(lpa).FinishMigration(lpa); !ok {
		s.plb.Complete(lpa)
		return
	}
	if s.pool.Full() {
		s.demoteColdest()
	}
	s.pool.Add(lpa)
	s.plb.Complete(lpa)
	s.migr.Promotions++
	// PTE update, then a TLB shootdown interrupts every core.
	s.Eng.AfterH(pteUpdateCost, hShootdown, 0, s, nil)
}

// demoteColdest evicts the LRU promoted page back to the SSD through the
// normal write path (a full-page copy; the system tracks no payload).
func (s *System) demoteColdest() {
	lpa, ok := s.pool.Coldest()
	if !ok {
		return
	}
	s.pool.Remove(lpa)
	s.migr.Demotions++
	s.writePage(lpa)
}

// --- TPP-style promotion (§VI-H) ---

func (s *System) tppScan() {
	if s.allDone() {
		return
	}
	for _, lpa := range s.tpp.Scan() {
		if s.pool.Contains(lpa) {
			continue
		}
		if !s.plb.TryBegin(lpa) {
			break
		}
		// TPP promotes regardless of SSD DRAM residency, so a promotion
		// may first pull the page from flash.
		x := s.getPromotion(lpa)
		x.ctrl = s.ctrlFor(lpa)
		x.ctrl.FetchPage(lpa, x.fetched)
	}
	s.Eng.AfterH(tppScanInterval, hTPPScan, 0, s, nil)
}

// --- AstriFlash-style host page cache (§VI-H) ---

// astriFetch is one in-flight 4 KB on-demand fetch into the host page
// cache, with the writebacks waiting for the page to land.
type astriFetch struct {
	next   *astriFetch
	s      *System
	page   mem.Addr
	lpa    uint64
	tenant int
	record bool
	writes []astriWrite

	atDevice func()
	fetched  func()
	landed   func()
}

// astriWrite is one writeback that missed the host page cache; it
// completes once its page lands.
type astriWrite struct {
	a        mem.Addr
	tenant   int
	record   bool
	accepted func()
}

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
	f.writes = append(f.writes, astriWrite{a: a, tenant: tenant, record: record, accepted: accepted})
}

// astriMiss starts (or joins) the 4 KB on-demand fetch of page from the SSD.
func (s *System) astriMiss(page mem.Addr, tenant int, record bool) *astriFetch {
	if f, ok := s.astriIn[page]; ok {
		return f
	}
	f := s.astriFree
	if f != nil {
		s.astriFree = f.next
		f.next = nil
	} else {
		f = s.newAstriFetch()
	}
	f.page, f.lpa, f.tenant, f.record = page, cxlPage(page), tenant, record
	s.astriIn[page] = f
	s.sendToDevice(f.lpa, cxl.HeaderBytes, f.atDevice)
	return f
}

func (s *System) newAstriFetch() *astriFetch {
	f := &astriFetch{s: s}
	f.atDevice = func() { f.s.ctrlFor(f.lpa).FetchPage(f.lpa, f.fetched) }
	f.fetched = func() {
		sys := f.s
		if f.record {
			sys.recordClass(f.tenant, stats.SSDReadMiss)
		}
		sys.sendToHost(f.lpa, pageBytes, f.landed)
	}
	f.landed = func() {
		sys := f.s
		v := sys.astri.Fill(f.page, false)
		if v.Valid && v.Dirty {
			// Dirty victim pages write back at page granularity —
			// AstriFlash always accesses the SSD in pages.
			sys.writePage(cxlPage(v.Addr))
		}
		delete(sys.astriIn, f.page)
		for _, w := range f.writes {
			sys.astri.Access(f.page, true) // dirty the landed page
			sys.hostWrite(w.a, w.tenant, w.record, w.accepted)
		}
		clear(f.writes)
		f.writes = f.writes[:0]
		f.next = sys.astriFree
		sys.astriFree = f
	}
	return f
}

// --- fleet tier migration (DESIGN.md §9) ---

// fleetMove is one hot/cold tier migration in flight: the page leaves
// the cold device through its port and the host link, and comes back
// down the link and the hot device's port.
type fleetMove struct {
	next     *fleetMove
	s        *System
	lpa      uint64
	src, dst *device

	fetched  func() // the page is in the source's SSD DRAM
	srcSent  func() // it crossed the source's port
	atHost   func() // it crossed the host link to the host
	linkSent func() // it crossed the host link back down
	atDst    func() // it crossed the destination's port
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
	x := s.moveFree
	if x != nil {
		s.moveFree = x.next
		x.next = nil
	} else {
		x = s.newFleetMove()
	}
	x.lpa, x.src, x.dst = m.LPA, s.devs[m.From], s.devs[m.To]
	x.src.ctrl.FetchPage(x.lpa, x.fetched)
}

func (s *System) newFleetMove() *fleetMove {
	x := &fleetMove{s: s}
	x.fetched = func() {
		x.src.fl.Trim(x.lpa)
		x.src.port.ToHost(pageBytes, x.srcSent)
	}
	x.srcSent = func() { x.s.link.ToHost(pageBytes, x.atHost) }
	x.atHost = func() { x.s.link.ToDevice(pageBytes, x.linkSent) }
	x.linkSent = func() { x.dst.port.ToDevice(pageBytes, x.atDst) }
	x.atDst = func() {
		sys, lpa, dst := x.s, x.lpa, x.dst
		x.src, x.dst = nil, nil
		x.next = sys.moveFree
		sys.moveFree = x
		dst.ctrl.WritePage(lpa, nil, nil)
	}
	return x
}
