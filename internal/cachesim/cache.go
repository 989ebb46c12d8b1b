// Package cachesim implements the tag-only set-associative caches used for
// the CPU hierarchy (per-core L1/L2 and the shared LLC of Table II).
//
// Caches are write-back with configurable allocation policy. Stores use
// "write-validate" (no fetch on store miss) by default, mirroring the
// paper's model in which CXL writes never block the pipeline (§III-A: "as
// writes are buffered in the write log, they do not need to trigger context
// switch"); see DESIGN.md §1 for the discussion.
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

// MissRate returns misses/(hits+misses).
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// Accesses returns the total lookup count (hits + misses) — the
// denominator a windowed hit-ratio probe differences between samples.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// Cache is a set-associative, true-LRU, tag-only cache.
type Cache struct {
	cfg      Config
	sets     int
	ways     int
	lineMask mem.Addr
	setMask  uint64
	shift    uint
	setShift uint // log2(sets), precomputed off the probe path

	tags  []uint64 // sets*ways; tag==0 slot may still be valid, see valid
	valid []bool
	dirty []bool
	lru   []uint64 // recency stamp per way
	clock uint64   // 64 bits: a 32-bit clock wraps within long runs

	Stats Stats
}

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
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     cfg.Ways,
		lineMask: mem.Addr(cfg.LineBytes - 1),
		setMask:  uint64(sets - 1),
		shift:    shift,
		setShift: uint(log2(sets)),
		tags:     make([]uint64, sets*cfg.Ways),
		valid:    make([]bool, sets*cfg.Ways),
		dirty:    make([]bool, sets*cfg.Ways),
		lru:      make([]uint64, sets*cfg.Ways),
	}
	return c
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) index(a mem.Addr) (set int, tag uint64) {
	ln := uint64(a) >> c.shift
	return int(ln & c.setMask), ln >> c.setShift
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
	set, tag := c.index(a)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Access performs a demand access. If the line is present it is touched
// (and dirtied for writes) and hit=true. If absent, hit=false and the line
// is NOT allocated — callers decide whether and when to Fill (after the next
// level responds).
func (c *Cache) Access(a mem.Addr, write bool) (hit bool) {
	set, tag := c.index(a)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.clock++
			c.lru[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Update touches the line if present (refreshing recency and optionally
// dirtying it) without recording demand statistics — used when victims
// cascade down the hierarchy, which must not perturb miss-rate accounting.
func (c *Cache) Update(a mem.Addr, dirty bool) bool {
	set, tag := c.index(a)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.clock++
			c.lru[i] = c.clock
			if dirty {
				c.dirty[i] = true
			}
			return true
		}
	}
	return false
}

// Fill allocates the line (after a miss was serviced), marking it dirty if
// the triggering access was a write. It returns the victim line, which is
// valid if an occupied way was evicted.
func (c *Cache) Fill(a mem.Addr, dirty bool) Victim {
	set, tag := c.index(a)
	base := set * c.ways
	// Already present (raced fill): just update.
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.clock++
			c.lru[i] = c.clock
			if dirty {
				c.dirty[i] = true
			}
			return Victim{}
		}
	}
	victimWay := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if !c.valid[i] {
			victimWay = w
			break
		}
		if c.lru[i] <= oldest {
			oldest = c.lru[i]
			victimWay = w
		}
	}
	i := base + victimWay
	var v Victim
	if c.valid[i] {
		v = Victim{Addr: c.lineAddr(set, c.tags[i]), Dirty: c.dirty[i], Valid: true}
		c.Stats.Evictions++
		if c.dirty[i] {
			c.Stats.DirtyEvs++
		}
	}
	c.clock++
	c.tags[i] = tag
	c.valid[i] = true
	c.dirty[i] = dirty
	c.lru[i] = c.clock
	return v
}

func (c *Cache) lineAddr(set int, tag uint64) mem.Addr {
	return mem.Addr((tag<<c.setShift|uint64(set))<<c.shift) | 0
}

// Invalidate drops the line if present, returning whether it was dirty.
func (c *Cache) Invalidate(a mem.Addr) (wasPresent, wasDirty bool) {
	set, tag := c.index(a)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.valid[i] = false
			return true, c.dirty[i]
		}
	}
	return false, false
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}
