package cachesim

import (
	"testing"
	"testing/quick"

	"skybyte/internal/mem"
	"skybyte/internal/trace"
)

func small() *Cache {
	return New(Config{Name: "t", SizeBytes: 8 * 64, Ways: 2}) // 4 sets, 2 ways
}

func TestMissThenFillThenHit(t *testing.T) {
	c := small()
	a := mem.Addr(0x1000)
	if c.Access(a, false) {
		t.Fatal("cold access should miss")
	}
	c.Fill(a, false)
	if !c.Access(a, false) {
		t.Fatal("filled line should hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

// TestNewestLineSurvivesEviction: filling a third line into a full
// two-way set evicts the oldest fill and keeps the newest one resident.
func TestNewestLineSurvivesEviction(t *testing.T) {
	c := small()
	a0, a1, a2 := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Fill(a0, false)
	c.Fill(a1, false) // the most recent line
	v := c.Fill(a2, false)
	if !v.Valid || v.Addr != a0 {
		t.Fatalf("victim = %+v, want the older line %#x", v, a0)
	}
	if !c.Lookup(a1) {
		t.Fatal("the most recently filled line was evicted")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets => set stride 64*4 = 256
	// Three lines mapping to the same set (stride = sets*line = 256).
	a0, a1, a2 := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Fill(a0, false)
	c.Fill(a1, false)
	c.Access(a0, false) // a0 most recent, a1 LRU
	v := c.Fill(a2, false)
	if !v.Valid || v.Addr != a1 {
		t.Fatalf("victim = %+v, want a1", v)
	}
	if !c.Lookup(a0) || c.Lookup(a1) || !c.Lookup(a2) {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := small()
	a0, a1, a2 := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Fill(a0, true) // dirty
	c.Fill(a1, false)
	c.Access(a1, false)
	v := c.Fill(a2, false)
	if !v.Valid || v.Addr != a0 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty a0", v)
	}
	if c.Stats.DirtyEvs != 1 {
		t.Fatal("dirty eviction not counted")
	}
}

func TestWriteDirtiesLine(t *testing.T) {
	c := small()
	a := mem.Addr(64)
	c.Fill(a, false)
	c.Access(a, true)
	_, dirty := c.Invalidate(a)
	if !dirty {
		t.Fatal("write hit should dirty the line")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	a := mem.Addr(128)
	if p, _ := c.Invalidate(a); p {
		t.Fatal("invalidate of absent line")
	}
	c.Fill(a, true)
	p, d := c.Invalidate(a)
	if !p || !d {
		t.Fatal("invalidate of dirty line")
	}
	if c.Lookup(a) {
		t.Fatal("line still present after invalidate")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := small()
	c.Fill(0, false)
	v := c.Fill(0, true)
	if v.Valid {
		t.Fatal("refill of resident line must not evict")
	}
	_, d := c.Invalidate(0)
	if !d {
		t.Fatal("refill with dirty should mark dirty")
	}
}

func TestPageGranularCache(t *testing.T) {
	c := New(Config{Name: "page", SizeBytes: 16 * mem.PageBytes, Ways: 4, LineBytes: mem.PageBytes})
	p := mem.Addr(0x42000)
	if c.Access(p, false) {
		t.Fatal("cold page access should miss")
	}
	c.Fill(p, false)
	if !c.Access(p+100, false) {
		t.Fatal("any address within the page should hit")
	}
}

// refCache is a test-local true-LRU model: each set holds its lines with
// the stamp of their last touch, and a fill into a full set evicts the
// line with the oldest stamp.
type refCache struct {
	ways, sets int
	shift      uint
	stamp      uint64
	lines      map[int][]refLine // set -> resident lines, unordered
	stats      Stats
}

type refLine struct {
	addr  mem.Addr // line address
	dirty bool
	stamp uint64
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{ways: cfg.Ways, sets: cfg.SizeBytes / cfg.LineBytes / cfg.Ways, lines: map[int][]refLine{}}
	for 1<<r.shift < cfg.LineBytes {
		r.shift++
	}
	return r
}

func (r *refCache) find(a mem.Addr) (set, i int) {
	ln := uint64(a) >> r.shift
	set = int(ln % uint64(r.sets))
	for i, l := range r.lines[set] {
		if l.addr == mem.Addr(ln<<r.shift) {
			return set, i
		}
	}
	return set, -1
}

func (r *refCache) touch(set, i int, dirty bool) {
	r.stamp++
	l := &r.lines[set][i]
	l.stamp = r.stamp
	l.dirty = l.dirty || dirty
}

func (r *refCache) access(a mem.Addr, write bool) bool {
	set, i := r.find(a)
	if i < 0 {
		r.stats.Misses++
		return false
	}
	r.touch(set, i, write)
	r.stats.Hits++
	return true
}

func (r *refCache) fill(a mem.Addr, dirty bool) Victim {
	set, i := r.find(a)
	if i >= 0 {
		r.touch(set, i, dirty)
		return Victim{}
	}
	var v Victim
	lines := r.lines[set]
	if len(lines) == r.ways {
		old := 0
		for j := range lines {
			if lines[j].stamp < lines[old].stamp {
				old = j
			}
		}
		v = Victim{Addr: lines[old].addr, Dirty: lines[old].dirty, Valid: true}
		r.stats.Evictions++
		if v.Dirty {
			r.stats.DirtyEvs++
		}
		lines = append(lines[:old], lines[old+1:]...)
	}
	r.stamp++
	line := mem.Addr(uint64(a) >> r.shift << r.shift)
	r.lines[set] = append(lines, refLine{addr: line, dirty: dirty, stamp: r.stamp})
	return v
}

func (r *refCache) invalidate(a mem.Addr) (present, dirty bool) {
	set, i := r.find(a)
	if i < 0 {
		return false, false
	}
	l := r.lines[set][i]
	r.lines[set] = append(r.lines[set][:i], r.lines[set][i+1:]...)
	return true, l.dirty
}

func (r *refCache) occupancy() int {
	n := 0
	for _, l := range r.lines {
		n += len(l)
	}
	return n
}

// Property: against a true-LRU reference model, random sequences of
// loads, stores, fills (raced fills of resident lines included),
// invalidations and lookups agree on every hit/miss, every victim, the
// stats and the occupancy after every op — on 8-way and 16-way line
// caches and on a 16-way, 4 KiB-line cache shaped like the AstriFlash
// page cache.
func TestAgainstReferenceModel(t *testing.T) {
	geometries := []Config{
		{Name: "l1", SizeBytes: 4 * 8 * 64, Ways: 8, LineBytes: 64},
		{Name: "llc", SizeBytes: 8 * 16 * 64, Ways: 16, LineBytes: 64},
		{Name: "astri", SizeBytes: 4 * 16 * mem.PageBytes, Ways: 16, LineBytes: mem.PageBytes},
	}
	for _, cfg := range geometries {
		t.Run(cfg.Name, func(t *testing.T) {
			lines := uint64(cfg.SizeBytes/cfg.LineBytes) * 3 // ~3x capacity in play
			f := func(seed uint64) bool {
				c, ref := New(cfg), newRefCache(cfg)
				rng := trace.NewRNG(seed)
				for op := 0; op < 4000; op++ {
					a := mem.Addr(rng.Uint64n(lines)*uint64(cfg.LineBytes) + rng.Uint64n(uint64(cfg.LineBytes)))
					switch k := rng.Intn(10); {
					case k < 5: // demand load or store, filled on a miss
						write := rng.Bool(0.3)
						hit := c.Access(a, write)
						if want := ref.access(a, write); hit != want {
							t.Logf("op %d: Access(%#x, %v) = %v, want %v", op, a, write, hit, want)
							return false
						}
						if !hit {
							dirty := write && rng.Bool(0.5)
							if v, want := c.Fill(a, dirty), ref.fill(a, dirty); v != want {
								t.Logf("op %d: Fill(%#x) victim = %+v, want %+v", op, a, v, want)
								return false
							}
						}
					case k < 7: // fill without a preceding access: may race a resident line
						dirty := rng.Bool(0.3)
						if v, want := c.Fill(a, dirty), ref.fill(a, dirty); v != want {
							t.Logf("op %d: Fill(%#x, %v) victim = %+v, want %+v", op, a, dirty, v, want)
							return false
						}
					case k < 8:
						p, d := c.Invalidate(a)
						if wp, wd := ref.invalidate(a); p != wp || d != wd {
							t.Logf("op %d: Invalidate(%#x) = %v,%v, want %v,%v", op, a, p, d, wp, wd)
							return false
						}
					default:
						_, i := ref.find(a)
						if got := c.Lookup(a); got != (i >= 0) {
							t.Logf("op %d: Lookup(%#x) = %v, want %v", op, a, got, i >= 0)
							return false
						}
					}
					if c.Stats != ref.stats || c.Occupancy() != ref.occupancy() {
						t.Logf("op %d: stats %+v occupancy %d, want %+v %d", op, c.Stats, c.Occupancy(), ref.stats, ref.occupancy())
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: occupancy never exceeds capacity and every filled line is
// findable until evicted.
func TestOccupancyBound(t *testing.T) {
	c := New(Config{Name: "cap", SizeBytes: 32 * 64, Ways: 8})
	rng := trace.NewRNG(3)
	for i := 0; i < 10000; i++ {
		a := mem.Addr(rng.Uint64n(1 << 20)).Line()
		if !c.Access(a, rng.Bool(0.3)) {
			c.Fill(a, false)
		}
		if c.Occupancy() > 32 {
			t.Fatal("occupancy exceeded capacity")
		}
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{Name: "bench", SizeBytes: 32 * mem.KiB, Ways: 8})
	c.Fill(0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, false)
	}
}

func BenchmarkAccessMissFill(b *testing.B) {
	c := New(Config{Name: "bench", SizeBytes: 32 * mem.KiB, Ways: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mem.Addr(i*64) % (1 << 22)
		if !c.Access(a, false) {
			c.Fill(a, false)
		}
	}
}
