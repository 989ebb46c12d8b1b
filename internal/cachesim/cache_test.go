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

// TestLRUClockPastUint32: the recency clock keeps ordering lines after
// 2^32 touches. Started just below 2^32, the line touched after the
// crossing is the newest and must survive the next eviction.
func TestLRUClockPastUint32(t *testing.T) {
	c := small()
	c.clock = 1<<32 - 2
	a0, a1, a2 := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Fill(a0, false) // stamp 2^32-1
	c.Fill(a1, false) // stamp 2^32: the most recent line
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

// Property: against a reference model (map + per-set LRU list), the cache
// agrees on hit/miss for random access sequences.
func TestAgainstReferenceModel(t *testing.T) {
	f := func(seed uint64) bool {
		c := New(Config{Name: "ref", SizeBytes: 16 * 64, Ways: 4}) // 4 sets
		type refLine struct {
			addr  mem.Addr
			stamp int
		}
		ref := map[int][]refLine{} // set -> lines, unbounded order
		stamp := 0
		rng := trace.NewRNG(seed)
		for op := 0; op < 3000; op++ {
			a := mem.Addr(rng.Uint64n(64)) * 64 // 64 distinct lines
			set := int(uint64(a) >> 6 & 3)
			// Reference lookup.
			refHit := false
			lines := ref[set]
			for i := range lines {
				if lines[i].addr == a {
					refHit = true
					stamp++
					lines[i].stamp = stamp
					break
				}
			}
			hit := c.Access(a, false)
			if hit != refHit {
				return false
			}
			if !hit {
				c.Fill(a, false)
				stamp++
				if len(lines) == 4 {
					// Evict LRU from reference.
					lruI := 0
					for i := range lines {
						if lines[i].stamp < lines[lruI].stamp {
							lruI = i
						}
					}
					lines = append(lines[:lruI], lines[lruI+1:]...)
				}
				ref[set] = append(lines, refLine{addr: a, stamp: stamp})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
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

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("zero stats miss rate")
	}
	s.Hits, s.Misses = 3, 1
	if s.MissRate() != 0.25 {
		t.Fatal("miss rate")
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
