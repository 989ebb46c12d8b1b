// Package writelog implements SkyByte's cacheline-granular write log
// (paper §III-B, Figs. 11–13): a circular append buffer of 64 B cachelines
// indexed by a two-level hash table.
//
// The first level maps a logical page address (LPA) to a second-level
// table; each second-level entry packs a 6-bit in-page offset with a 26-bit
// log offset into 4 bytes, exactly as Fig. 12 describes. Second-level
// tables start at 4 entries and double when their load factor exceeds 0.75,
// giving the paper's worst-case index bound (≈32 MB for a 64 MB log) while
// staying small for sparse-write workloads (≈5.6 MB average in the paper).
//
// A rewrite of a logged line appends a fresh entry and repoints the index
// at it; the superseded entry stays in the buffer until compaction drops it
// ("the old updates will be dropped during the compaction"). The log is
// used double-buffered by the controller: one instance fills while the
// other drains.
//
// The modelled index footprint (IndexBytes) is maintained incrementally:
// every site that adds, resizes or voids a table adjusts a running byte
// count, so Append costs O(1) amortised. The Go memory behind the index
// is recycled: second-level tables are carved from one slab per log with
// per-size free lists, and first-level arrays are kept per size across
// Reset, so a log that has run one fill-and-compact cycle appends
// without allocating.
package writelog

import (
	"fmt"
	"math/bits"
	"slices"

	"skybyte/internal/mem"
)

const (
	secondInit       = 4    // initial second-level table slots (16 B)
	secondClasses    = 6    // second-level sizes 4..128 slots (64 lines at load ≤ 3/4)
	firstInit        = 16   // initial first-level table slots
	firstSlotBytes   = 16   // 8 B LPA + 8 B second-level pointer (Fig. 12)
	secondSlotBytes  = 4    // 6-bit offset + 26-bit log offset (Fig. 12)
	loadNum, loadDen = 3, 4 // resize when used/slots > 3/4
	emptyEntry       = ^uint32(0)
	offsetShift      = 26
	logOffsetMask    = (1 << offsetShift) - 1
)

// firstEntry is one slot of the first-level table: the 8 B LPA plus the
// page's second-level table, which the modelled hardware reaches through
// an 8 B pointer (Fig. 12) and the simulator as a slab offset and size.
type firstEntry struct {
	lpa   uint64
	base  uint32 // second-level table: slab[base : base+secondInit<<class]
	class uint8
	used  uint8 // occupied second-level slots
	state uint8 // 0 empty, 1 used, 2 tombstone
}

// LineEntry is one logged cacheline of a page, reported by AppendPageLines.
type LineEntry struct {
	Offset    uint // cacheline index within the page (0..63)
	LogOffset uint32
	Data      []byte // nil unless the log tracks data
}

// Stats counts log activity across the lifetime of the instance.
type Stats struct {
	Appends   uint64 // lines appended
	Updates   uint64 // appends that superseded a logged line
	Lookups   uint64
	Hits      uint64
	Resets    uint64 // compaction cycles completed
	PeakIndex int    // largest index footprint observed, bytes
}

// Log is one write-log buffer with its index.
type Log struct {
	capacity int
	len      int
	lines    []uint64 // per log slot: global line number
	data     []byte   // capacity*64 bytes when tracking data
	first    []firstEntry
	firstLen int // used (non-tombstone) entries
	tombs    int
	index    int // modelled index footprint in bytes (IndexBytes)
	stats    Stats
	track    bool

	// slab backs every second-level table; freeTables lists the slab
	// offsets of voided tables by size class, for reuse before the slab
	// grows. Reset empties both.
	slab       []uint32
	freeTables [secondClasses][]uint32
	// freeFirst keeps one first-level array per size class
	// (firstInit<<k slots) for reuse by growFirst and Reset.
	freeFirst [][]firstEntry
}

// New builds a log holding capacityLines cachelines. trackData enables the
// functional byte payload path used by correctness tests.
func New(capacityLines int, trackData bool) *Log {
	if capacityLines <= 0 {
		panic("writelog: capacity must be positive")
	}
	if capacityLines > 1<<offsetShift {
		panic(fmt.Sprintf("writelog: capacity %d exceeds 26-bit log offset space", capacityLines))
	}
	l := &Log{
		capacity: capacityLines,
		lines:    make([]uint64, capacityLines),
		first:    make([]firstEntry, firstInit),
		index:    firstInit * firstSlotBytes,
		track:    trackData,
	}
	if trackData {
		l.data = make([]byte, capacityLines*mem.LineBytes)
	}
	return l
}

// Capacity returns the log size in cachelines.
func (l *Log) Capacity() int { return l.capacity }

// CapacityBytes returns the log size in bytes.
func (l *Log) CapacityBytes() int { return l.capacity * mem.LineBytes }

// Len returns the number of appended (not yet compacted) entries,
// including superseded duplicates.
func (l *Log) Len() int { return l.len }

// Full reports whether the next append would not fit.
func (l *Log) Full() bool { return l.len >= l.capacity }

// Occupancy returns the filled fraction of the log in [0, 1] — the
// value the write-log telemetry probe samples.
func (l *Log) Occupancy() float64 {
	if l.capacity == 0 {
		return 0
	}
	return float64(l.len) / float64(l.capacity)
}

// Stats returns a copy of the counters.
func (l *Log) Stats() Stats { return l.stats }

// LiveLines returns the number of distinct logged cachelines (index
// entries); Len()-LiveLines() is space wasted on superseded updates that
// compaction will drop.
func (l *Log) LiveLines() int {
	n := 0
	for i := range l.first {
		if l.first[i].state == 1 {
			n += int(l.first[i].used)
		}
	}
	return n
}

// PageCount returns the number of distinct pages with logged lines.
func (l *Log) PageCount() int { return l.firstLen }

// IndexBytes returns the current index memory footprint: 16 B per
// first-level slot plus 4 B per slot of every live second-level table
// (Fig. 12 sizes). The count is maintained incrementally as tables are
// added, resized and voided, so the call is O(1).
func (l *Log) IndexBytes() int { return l.index }

func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// findFirst returns the slot index of lpa, or the insertion slot
// (preferring the first tombstone seen) with found=false.
func (l *Log) findFirst(lpa uint64) (idx int, found bool) {
	mask := uint64(len(l.first) - 1)
	i := hash64(lpa) & mask
	firstTomb := -1
	for {
		e := &l.first[i]
		switch e.state {
		case 0:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case 2:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		default:
			if e.lpa == lpa {
				return int(i), true
			}
		}
		i = (i + 1) & mask
	}
}

func (l *Log) growFirst() {
	old := l.first
	l.first = l.takeFirst(len(old) * 2)
	l.index += len(old) * firstSlotBytes
	l.firstLen = 0
	l.tombs = 0
	for i := range old {
		if old[i].state == 1 {
			idx, _ := l.findFirst(old[i].lpa)
			l.first[idx] = old[i]
			l.firstLen++
		}
	}
	l.putFirst(old)
}

// takeFirst returns a zeroed first-level array of n slots (a power of
// two from firstInit up), recycled when one is free.
func (l *Log) takeFirst(n int) []firstEntry {
	k := bits.TrailingZeros(uint(n / firstInit))
	if k < len(l.freeFirst) && l.freeFirst[k] != nil {
		f := l.freeFirst[k]
		l.freeFirst[k] = nil
		clear(f)
		return f
	}
	return make([]firstEntry, n)
}

// putFirst keeps a first-level array for reuse. One array per size is
// enough: the index holds one first-level table at a time.
func (l *Log) putFirst(f []firstEntry) {
	k := bits.TrailingZeros(uint(len(f) / firstInit))
	for len(l.freeFirst) <= k {
		l.freeFirst = append(l.freeFirst, nil)
	}
	l.freeFirst[k] = f
}

// table returns e's second-level table.
func (l *Log) table(e *firstEntry) []uint32 {
	return l.slab[e.base : e.base+secondInit<<e.class]
}

// takeTable returns the slab offset of an all-empty second-level table
// of secondInit<<class slots, reusing a voided one when available.
func (l *Log) takeTable(class uint8) uint32 {
	n := uint32(secondInit) << class
	var base uint32
	if free := l.freeTables[class]; len(free) > 0 {
		base = free[len(free)-1]
		l.freeTables[class] = free[:len(free)-1]
	} else {
		base = uint32(len(l.slab))
		l.slab = slices.Grow(l.slab, int(n))[:base+n]
	}
	t := l.slab[base : base+n]
	for i := range t {
		t[i] = emptyEntry
	}
	return base
}

// Append logs one cacheline write. line is the global cacheline number
// (address/64); data, when non-nil and tracking is on, is the 64 B payload.
// It panics if the log is full — the controller must switch buffers first.
func (l *Log) Append(line uint64, data []byte) {
	if l.Full() {
		panic("writelog: append to full log")
	}
	slot := uint32(l.len)
	l.lines[slot] = line
	if l.track && data != nil {
		copy(l.data[int(slot)*mem.LineBytes:], data)
	}
	l.len++
	l.stats.Appends++

	lpa := line >> 6 // page number
	offset := uint32(line & mem.LineInPageMsk)
	idx, found := l.findFirst(lpa)
	if !found {
		if (l.firstLen+l.tombs+1)*loadDen > len(l.first)*loadNum {
			l.growFirst()
			idx, _ = l.findFirst(lpa)
		}
		if l.first[idx].state == 2 {
			l.tombs--
		}
		l.first[idx] = firstEntry{lpa: lpa, base: l.takeTable(0), state: 1}
		l.index += secondInit * secondSlotBytes
		l.firstLen++
	}
	if l.insert(&l.first[idx], offset, slot) {
		l.stats.Updates++
	}
	if l.index > l.stats.PeakIndex {
		l.stats.PeakIndex = l.index
	}
}

// insert adds or updates the (offset → logOffset) entry of e's table,
// returning whether an existing entry was superseded.
func (l *Log) insert(e *firstEntry, offset, logOffset uint32) (updated bool) {
	t := l.table(e)
	mask := uint32(len(t) - 1)
	i := offset & mask
	for {
		x := t[i]
		if x == emptyEntry {
			break
		}
		if x>>offsetShift == offset {
			t[i] = offset<<offsetShift | logOffset
			return true
		}
		i = (i + 1) & mask
	}
	if (int(e.used)+1)*loadDen > len(t)*loadNum {
		// Double: a fresh table one class up, then void the old one. A
		// slab that grows moves, but old still reads its prior contents.
		old, oldBase, oldClass := t, e.base, e.class
		e.base, e.class = l.takeTable(oldClass+1), oldClass+1
		l.index += len(old) * secondSlotBytes
		t = l.table(e)
		for _, x := range old {
			if x != emptyEntry {
				place(t, x>>offsetShift, x)
			}
		}
		l.freeTables[oldClass] = append(l.freeTables[oldClass], oldBase)
	}
	place(t, offset, offset<<offsetShift|logOffset)
	e.used++
	return false
}

// place inserts an entry known to be absent, without load checks.
func place(t []uint32, offset, entry uint32) {
	mask := uint32(len(t) - 1)
	i := offset & mask
	for t[i] != emptyEntry {
		i = (i + 1) & mask
	}
	t[i] = entry
}

// lookup returns the log offset of a page offset in table t.
func lookup(t []uint32, offset uint32) (uint32, bool) {
	mask := uint32(len(t) - 1)
	i := offset & mask
	for {
		x := t[i]
		if x == emptyEntry {
			return 0, false
		}
		if x>>offsetShift == offset {
			return x & logOffsetMask, true
		}
		i = (i + 1) & mask
	}
}

// Lookup returns whether line is logged and, with tracking on, its newest
// payload.
func (l *Log) Lookup(line uint64) (data []byte, ok bool) {
	l.stats.Lookups++
	idx, found := l.findFirst(line >> 6)
	if !found {
		return nil, false
	}
	slot, ok := lookup(l.table(&l.first[idx]), uint32(line&mem.LineInPageMsk))
	if !ok {
		return nil, false
	}
	l.stats.Hits++
	if l.track {
		off := int(slot) * mem.LineBytes
		return l.data[off : off+mem.LineBytes], true
	}
	return nil, true
}

// Contains reports whether line is logged, without stats side effects.
func (l *Log) Contains(line uint64) bool {
	idx, found := l.findFirst(line >> 6)
	if !found {
		return false
	}
	_, ok := lookup(l.table(&l.first[idx]), uint32(line&mem.LineInPageMsk))
	return ok
}

// Pages returns the distinct LPAs with logged lines, in deterministic
// (first-level slot) order — compaction's L1 scan.
func (l *Log) Pages() []uint64 {
	out := make([]uint64, 0, l.firstLen)
	for i := range l.first {
		if l.first[i].state == 1 {
			out = append(out, l.first[i].lpa)
		}
	}
	return out
}

// AppendPageLines appends the newest logged line entries of one page to
// dst and returns the extended slice — the L4 second-level traversal that
// merges dirty lines during compaction. Callers pass a reused buffer
// (dst[:0]) so the traversal allocates nothing.
func (l *Log) AppendPageLines(dst []LineEntry, lpa uint64) []LineEntry {
	idx, found := l.findFirst(lpa)
	if !found {
		return dst
	}
	for _, x := range l.table(&l.first[idx]) {
		if x == emptyEntry {
			continue
		}
		le := LineEntry{Offset: uint(x >> offsetShift), LogOffset: x & logOffsetMask}
		if l.track {
			off := int(le.LogOffset) * mem.LineBytes
			le.Data = l.data[off : off+mem.LineBytes]
		}
		dst = append(dst, le)
	}
	return dst
}

// InvalidatePage voids the index entries of one page (§III-C: after a page
// migrates to the host, "the SSD ... invalidates the write log index by
// setting the corresponding entry as NULL"). The buffer space is reclaimed
// at the next compaction.
func (l *Log) InvalidatePage(lpa uint64) {
	idx, found := l.findFirst(lpa)
	if !found {
		return
	}
	e := &l.first[idx]
	l.index -= secondInit << e.class * secondSlotBytes
	l.freeTables[e.class] = append(l.freeTables[e.class], e.base)
	*e = firstEntry{state: 2}
	l.firstLen--
	l.tombs++
}

// Reset clears the log for reuse as the fresh half of the double buffer
// ("after compaction, we remove the indexing table and reclaim the memory
// used by the previous log"). The modelled index shrinks back to its
// initial 16 first-level slots; the Go memory behind it is kept for the
// next fill.
func (l *Log) Reset() {
	l.len = 0
	l.putFirst(l.first)
	l.first = l.takeFirst(firstInit)
	l.index = firstInit * firstSlotBytes
	l.slab = l.slab[:0]
	for k := range l.freeTables {
		l.freeTables[k] = l.freeTables[k][:0]
	}
	l.firstLen = 0
	l.tombs = 0
	l.stats.Resets++
}
