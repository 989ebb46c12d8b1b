// Package core implements the paper's primary contribution: the SkyByte
// SSD controller (§III). It combines the CXL-aware SSD DRAM management —
// the cacheline-granular double-buffered write log plus the page-granular
// read-write data cache (§III-B) — with the threshold-based context-switch
// trigger policy (Algorithm 1) and the migration-candidate tracking that
// feeds adaptive page promotion (§III-C). A configuration flag degrades the
// same controller to Base-CSSD (the state-of-the-art baseline: page-granular
// RMW cache with prefetch and device-side MSHRs).
package core

import "skybyte/internal/mem"

// PageFrame is one resident page of the SSD DRAM data cache. The 64-bit
// line masks directly support the paper's Figs. 5–6 locality analysis and
// the write-amplification accounting.
type PageFrame struct {
	LPA       uint64
	Valid     bool
	Accessed  uint64 // bitmask of lines touched while resident
	DirtyMsk  uint64 // bitmask of lines dirtied while resident
	Migrating bool   // promotion in progress; frame pinned
	Nominated bool   // already offered as a promotion candidate
	// InsertedAt is the simulated time the frame was filled; promotion
	// requires sustained access over a minimum residency so streaming
	// sweeps do not masquerade as hot pages.
	InsertedAt int64
	lru        uint64
	Data       []byte // 4 KB payload when the controller tracks data
}

// PageCacheStats counts data-cache events.
type PageCacheStats struct {
	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Evictions uint64
	DirtyEvs  uint64
}

// PageCache is the set-associative, LRU, page-granular read-write cache of
// §III-B ("the read-write cache is managed in page granularity to exploit
// spatial locality").
type PageCache struct {
	sets, ways int
	frames     []PageFrame
	clock      uint64
	track      bool

	Stats PageCacheStats
}

// NewPageCache builds a cache of sizeBytes with the given associativity
// (Table II / artifact knobs ssd_cache_size_byte and ssd_cache_way).
func NewPageCache(sizeBytes int, ways int, trackData bool) *PageCache {
	if ways <= 0 {
		panic("core: cache ways must be positive")
	}
	framesTotal := sizeBytes / mem.PageBytes
	if framesTotal < ways {
		framesTotal = ways
	}
	sets := framesTotal / ways
	// Round sets down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	return &PageCache{
		sets:   sets,
		ways:   ways,
		frames: make([]PageFrame, sets*ways),
		track:  trackData,
	}
}

// Frames returns the total frame count.
func (pc *PageCache) Frames() int { return pc.sets * pc.ways }

// SizeBytes returns the cache capacity.
func (pc *PageCache) SizeBytes() int { return pc.Frames() * mem.PageBytes }

func (pc *PageCache) setOf(lpa uint64) int { return int(lpa) & (pc.sets - 1) }

// Lookup returns the resident frame for lpa, or nil, updating hit/miss
// statistics and recency.
func (pc *PageCache) Lookup(lpa uint64) *PageFrame {
	base := pc.setOf(lpa) * pc.ways
	for w := 0; w < pc.ways; w++ {
		f := &pc.frames[base+w]
		if f.Valid && f.LPA == lpa {
			pc.clock++
			f.lru = pc.clock
			pc.Stats.Hits++
			return f
		}
	}
	pc.Stats.Misses++
	return nil
}

// Peek returns the resident frame without touching statistics or recency.
func (pc *PageCache) Peek(lpa uint64) *PageFrame {
	base := pc.setOf(lpa) * pc.ways
	for w := 0; w < pc.ways; w++ {
		f := &pc.frames[base+w]
		if f.Valid && f.LPA == lpa {
			return f
		}
	}
	return nil
}

// Insert allocates a frame for lpa, evicting the least-recently-used
// non-pinned frame of the set if needed. The evicted frame's contents are
// returned by value (Valid=false if the set had room). If every candidate
// frame is pinned by an in-flight migration, ok is false and the caller
// must bypass the cache.
func (pc *PageCache) Insert(lpa uint64) (victim PageFrame, f *PageFrame, ok bool) {
	base := pc.setOf(lpa) * pc.ways
	victimIdx := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < pc.ways; w++ {
		fr := &pc.frames[base+w]
		if !fr.Valid {
			victimIdx = base + w
			oldest = 0
			break
		}
		if fr.Migrating {
			continue
		}
		if fr.lru <= oldest {
			oldest = fr.lru
			victimIdx = base + w
		}
	}
	if victimIdx < 0 {
		return PageFrame{}, nil, false
	}
	fr := &pc.frames[victimIdx]
	if fr.Valid {
		victim = *fr
		pc.Stats.Evictions++
		if fr.Dirty() {
			pc.Stats.DirtyEvs++
		}
	}
	pc.clock++
	*fr = PageFrame{LPA: lpa, Valid: true, lru: pc.clock}
	if pc.track {
		fr.Data = make([]byte, mem.PageBytes)
	}
	pc.Stats.Inserts++
	return victim, fr, true
}

// Drop invalidates lpa's frame if resident (SkyByte-W eviction is free, and
// migration completion removes the page: "the SSD removes the page from the
// data cache").
func (pc *PageCache) Drop(lpa uint64) (was PageFrame, present bool) {
	f := pc.Peek(lpa)
	if f == nil {
		return PageFrame{}, false
	}
	was = *f
	*f = PageFrame{}
	return was, true
}

// Dirty reports whether any line was dirtied while resident (Base-CSSD
// flush needs this).
func (f *PageFrame) Dirty() bool { return f.DirtyMsk != 0 }

// TouchRead marks a line of a resident frame as accessed.
func (f *PageFrame) TouchRead(lineIdx uint) {
	f.Accessed |= 1 << lineIdx
}

// TouchWrite marks a line as written (and accessed).
func (f *PageFrame) TouchWrite(lineIdx uint, data []byte) {
	f.Accessed |= 1 << lineIdx
	f.DirtyMsk |= 1 << lineIdx
	if f.Data != nil && data != nil {
		copy(f.Data[int(lineIdx)*mem.LineBytes:], data[:mem.LineBytes])
	}
}
