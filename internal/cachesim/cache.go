// Package cachesim implements the tag-only set-associative caches used for
// the CPU hierarchy (per-core L1/L2 and the shared LLC of Table II).
//
// Caches are write-back. The CPU model stores with "write-validate" (no
// fetch on store miss), mirroring the paper's model in which CXL writes
// never block the pipeline (§III-A: "as writes are buffered in the write
// log, they do not need to trigger context switch"); see DESIGN.md §1 for
// the discussion.
package cachesim

import (
	"fmt"

	"skybyte/internal/mem"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int // defaults to mem.LineBytes
}

// Victim describes a line evicted to make room for a fill.
type Victim struct {
	Addr  mem.Addr // line address
	Dirty bool
	Valid bool
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	DirtyEvs  uint64
}

// Accesses returns the total lookup count (hits + misses) — the
// denominator a windowed hit-ratio probe differences between samples.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// Cache is a set-associative, true-LRU, tag-only cache.
//
// Each way holds one key, tag<<2 | dirty<<1 | 1; the key 0 is an invalid
// way. A set keeps its valid lines first, most recent at index 0 and least
// recent last, with its invalid ways trailing. So a probe stops at the
// first 0, a hit moves its key to the front, and the victim of a fill into
// a full set is always the last way: recency is an order, not a stamp.
type Cache struct {
	ways     int
	setMask  uint64
	shift    uint
	setShift uint // log2(sets), precomputed off the probe path

	keys []uint64 // sets*ways, each set in recency order

	Stats Stats
}

const (
	validBit = 1
	dirtyBit = 2
	tagShift = 2
)

// New builds a cache. Size must be a multiple of ways*lineBytes and the set
// count must be a power of two.
func New(cfg Config) *Cache {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = mem.LineBytes
	}
	if cfg.Ways <= 0 {
		panic("cachesim: ways must be positive")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	if sets == 0 {
		sets = 1
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s: set count %d not a power of two", cfg.Name, sets))
	}
	shift := uint(log2(cfg.LineBytes))
	setShift := uint(log2(sets))
	if shift+setShift < tagShift {
		// The key's two flag bits come out of the address bits the line
		// offset and set index already consume.
		panic(fmt.Sprintf("cachesim: %s: %d-byte lines in %d sets leave no room for the flag bits", cfg.Name, cfg.LineBytes, sets))
	}
	return &Cache{
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		shift:    shift,
		setShift: setShift,
		keys:     make([]uint64, sets*cfg.Ways),
	}
}

// set returns the ways of a's set and a's key with the dirty bit clear.
func (c *Cache) set(a mem.Addr) (set []uint64, key uint64) {
	ln := uint64(a) >> c.shift
	base := int(ln&c.setMask) * c.ways
	return c.keys[base : base+c.ways : base+c.ways], ln>>c.setShift<<tagShift | validBit
}

// find returns the way holding key (dirty bit ignored), or -1.
func find(set []uint64, key uint64) int {
	for w, k := range set {
		if k&^dirtyBit == key {
			return w
		}
		if k == 0 {
			break
		}
	}
	return -1
}

// touch moves way w to the front of the set, ORing in dirty.
func touch(set []uint64, w int, dirty bool) {
	k := set[w]
	if dirty {
		k |= dirtyBit
	}
	if w > 0 {
		copy(set[1:w+1], set[:w])
	}
	set[0] = k
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// Lookup probes the cache without changing replacement state or stats.
func (c *Cache) Lookup(a mem.Addr) bool {
	set, key := c.set(a)
	return find(set, key) >= 0
}

// Access performs a demand access. If the line is present it is touched
// (and dirtied for writes) and hit=true. If absent, hit=false and the line
// is NOT allocated — callers decide whether and when to Fill (after the next
// level responds).
func (c *Cache) Access(a mem.Addr, write bool) (hit bool) {
	set, key := c.set(a)
	if w := find(set, key); w >= 0 {
		touch(set, w, write)
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// Fill allocates the line, marking it dirty if the triggering access was a
// write, and returns the victim line, which is valid if an occupied way was
// evicted. A line already present (a raced fill, or a victim cascading into
// a level that still holds it) is only touched and dirtied: it records no
// demand statistics and evicts nothing.
func (c *Cache) Fill(a mem.Addr, dirty bool) Victim {
	set, key := c.set(a)
	if w := find(set, key); w >= 0 {
		touch(set, w, dirty)
		return Victim{}
	}
	var v Victim
	if old := set[len(set)-1]; old != 0 {
		v = Victim{Addr: c.lineAddr(a, old), Dirty: old&dirtyBit != 0, Valid: true}
		c.Stats.Evictions++
		if v.Dirty {
			c.Stats.DirtyEvs++
		}
	}
	if dirty {
		key |= dirtyBit
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = key
	return v
}

// lineAddr rebuilds the line address of key, which lives in a's set.
func (c *Cache) lineAddr(a mem.Addr, key uint64) mem.Addr {
	set := uint64(a) >> c.shift & c.setMask
	return mem.Addr((key>>tagShift<<c.setShift | set) << c.shift)
}

// Invalidate drops the line if present, returning whether it was dirty.
func (c *Cache) Invalidate(a mem.Addr) (wasPresent, wasDirty bool) {
	set, key := c.set(a)
	w := find(set, key)
	if w < 0 {
		return false, false
	}
	k := set[w]
	copy(set[w:], set[w+1:])
	set[len(set)-1] = 0
	return true, k&dirtyBit != 0
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, k := range c.keys {
		if k != 0 {
			n++
		}
	}
	return n
}
