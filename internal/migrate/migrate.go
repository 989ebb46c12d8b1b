// Package migrate provides the host-side building blocks for SkyByte's
// adaptive page migration (§III-C) and the alternative mechanisms of §VI-H:
//
//   - PLB: the Promotion Look-aside Buffer in the root complex that bounds
//     and tracks in-flight promotions (64 entries of 24 B in the paper).
//   - Pool: the promoted-page set in host DRAM with exact-LRU demotion
//     victim selection (approximating Linux's active/inactive lists).
//   - TPPSampler: TPP-style periodic hotness sampling (less accurate and
//     laggier than SkyByte's per-access tracking, as §VI-H observes).
//
// The system package choreographs these with the controller and the CXL
// link; AstriFlash's hardware-managed host page cache reuses cachesim with
// 4 KB blocks.
package migrate

import "slices"

// PLB bounds concurrent migrations, like the 64-entry Promotion Look-aside
// Buffer in the host bridge.
type PLB struct {
	capacity int
	inflight map[uint64]bool
	// Rejected counts promotions declined because the PLB was full.
	Rejected uint64
}

// NewPLB builds a PLB with the given entry count.
func NewPLB(entries int) *PLB {
	if entries <= 0 {
		panic("migrate: PLB needs at least one entry")
	}
	return &PLB{capacity: entries, inflight: make(map[uint64]bool)}
}

// TryBegin reserves an entry for lpa; false if full or already migrating.
func (p *PLB) TryBegin(lpa uint64) bool {
	if p.inflight[lpa] {
		return false
	}
	if len(p.inflight) >= p.capacity {
		p.Rejected++
		return false
	}
	p.inflight[lpa] = true
	return true
}

// Complete releases lpa's entry.
func (p *PLB) Complete(lpa uint64) { delete(p.inflight, lpa) }

// InFlight returns the number of ongoing migrations.
func (p *PLB) InFlight() int { return len(p.inflight) }

// Migrating reports whether lpa has an in-flight promotion.
func (p *PLB) Migrating(lpa uint64) bool { return p.inflight[lpa] }

// Pool tracks promoted pages resident in host DRAM, in exact LRU order for
// demotion ("finding a relatively cold page tracked by the active/inactive
// list").
type Pool struct {
	capacity int
	nodes    map[uint64]*poolNode
	head     *poolNode // most recently used
	tail     *poolNode // least recently used
	free     *poolNode // unused nodes, taken by Add (linked by next)
}

// poolSlab is how many nodes a Pool allocates at once.
const poolSlab = 64

type poolNode struct {
	lpa        uint64
	prev, next *poolNode
}

// NewPool builds a pool holding capacityPages pages.
func NewPool(capacityPages int) *Pool {
	if capacityPages <= 0 {
		panic("migrate: pool needs capacity")
	}
	return &Pool{capacity: capacityPages, nodes: make(map[uint64]*poolNode)}
}

// Len returns the resident page count.
func (p *Pool) Len() int { return len(p.nodes) }

// Full reports whether an Add requires a demotion first.
func (p *Pool) Full() bool { return len(p.nodes) >= p.capacity }

// Contains reports residency.
func (p *Pool) Contains(lpa uint64) bool { return p.nodes[lpa] != nil }

// Add inserts lpa as most-recently-used. It panics if full — the caller
// must demote first (Coldest/Remove).
func (p *Pool) Add(lpa uint64) {
	if p.Full() {
		panic("migrate: pool full; demote first")
	}
	if p.Touch(lpa) {
		return
	}
	n := p.free
	if n == nil {
		// Grow by a slab, never past capacity: the free and resident
		// nodes together stay within it.
		slab := make([]poolNode, min(poolSlab, p.capacity-len(p.nodes)))
		for i := 1; i < len(slab); i++ {
			slab[i-1].next = &slab[i]
		}
		n = &slab[0]
	}
	p.free = n.next
	n.next = nil
	n.lpa = lpa
	p.nodes[lpa] = n
	p.pushFront(n)
}

// Touch refreshes lpa's recency on access and reports whether lpa is
// resident; an absent lpa is left absent.
func (p *Pool) Touch(lpa uint64) bool {
	n := p.nodes[lpa]
	if n == nil {
		return false
	}
	p.unlink(n)
	p.pushFront(n)
	return true
}

// Coldest returns the least-recently-used page, ok=false when empty.
func (p *Pool) Coldest() (lpa uint64, ok bool) {
	if p.tail == nil {
		return 0, false
	}
	return p.tail.lpa, true
}

// Remove evicts lpa from the pool.
func (p *Pool) Remove(lpa uint64) {
	n := p.nodes[lpa]
	if n == nil {
		return
	}
	p.unlink(n)
	delete(p.nodes, lpa)
	n.next = p.free
	p.free = n
}

func (p *Pool) pushFront(n *poolNode) {
	n.prev = nil
	n.next = p.head
	if p.head != nil {
		p.head.prev = n
	}
	p.head = n
	if p.tail == nil {
		p.tail = n
	}
}

func (p *Pool) unlink(n *poolNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		p.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		p.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// TPPSampler approximates TPP's NUMA-balancing-style hotness detection:
// accesses are counted between periodic scans; a scan returns pages whose
// count crossed the threshold and resets the window. Compared to SkyByte's
// per-access tracking this reacts at scan granularity and forgets history,
// reproducing the accuracy gap of §VI-H.
type TPPSampler struct {
	Threshold uint32
	counts    map[uint64]uint32
	hot       []uint64 // Scan's result, reused by the next Scan
}

// NewTPPSampler builds a sampler; the caller scans it periodically.
func NewTPPSampler(threshold uint32) *TPPSampler {
	return &TPPSampler{Threshold: threshold, counts: make(map[uint64]uint32)}
}

// Note records one access to a CXL page.
func (s *TPPSampler) Note(lpa uint64) { s.counts[lpa]++ }

// Scan returns promotion candidates (deterministically ordered by lpa) and
// resets the sampling window. The returned slice is valid until the next
// Scan, which reuses it.
func (s *TPPSampler) Scan() []uint64 {
	out := s.hot[:0]
	for lpa, c := range s.counts {
		if c >= s.Threshold {
			out = append(out, lpa)
		}
	}
	clear(s.counts)
	slices.Sort(out)
	s.hot = out
	return out
}
