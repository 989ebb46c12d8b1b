package core

import (
	"math/bits"
	"testing"
	"testing/quick"

	"skybyte/internal/mem"
	"skybyte/internal/trace"
)

func TestPageCacheLookupInsert(t *testing.T) {
	pc := NewPageCache(8*mem.PageBytes, 4, false)
	if pc.Frames() != 8 || pc.SizeBytes() != 8*mem.PageBytes {
		t.Fatalf("geometry: %d frames, %d bytes", pc.Frames(), pc.SizeBytes())
	}
	if pc.Lookup(5) != nil {
		t.Fatal("cold lookup hit")
	}
	_, f, ok := pc.Insert(5)
	if !ok || f == nil || !f.Valid || f.LPA != 5 {
		t.Fatal("insert failed")
	}
	if pc.Lookup(5) == nil {
		t.Fatal("inserted page not found")
	}
	if pc.Stats.Hits != 1 || pc.Stats.Misses != 1 || pc.Stats.Inserts != 1 {
		t.Fatalf("stats = %+v", pc.Stats)
	}
}

func TestPageCacheLRUVictim(t *testing.T) {
	pc := NewPageCache(2*mem.PageBytes, 2, false) // one set, two ways
	pc.Insert(0)
	pc.Insert(2)
	pc.Lookup(0) // 2 becomes LRU
	victim, _, ok := pc.Insert(4)
	if !ok || !victim.Valid || victim.LPA != 2 {
		t.Fatalf("victim = %+v, want page 2", victim)
	}
}

func TestPageCachePinnedFramesSurvive(t *testing.T) {
	pc := NewPageCache(2*mem.PageBytes, 2, false)
	_, f0, _ := pc.Insert(0)
	f0.Migrating = true
	pc.Insert(2)
	// Both ways occupied; one pinned. The next insert must evict page 2.
	victim, _, ok := pc.Insert(4)
	if !ok || victim.LPA != 2 {
		t.Fatalf("eviction chose %+v; pinned frame must survive", victim)
	}
	// Pin the remaining evictable frame too: insert must now fail.
	pc.Peek(4).Migrating = true
	if _, _, ok := pc.Insert(6); ok {
		t.Fatal("insert succeeded with every candidate pinned")
	}
}

func TestPageFrameTouchMasksAndData(t *testing.T) {
	pc := NewPageCache(4*mem.PageBytes, 4, true)
	_, f, _ := pc.Insert(9)
	f.TouchRead(3)
	if f.Dirty() {
		t.Fatal("a read-only frame reports dirty")
	}
	payload := make([]byte, mem.LineBytes)
	payload[0] = 0x5A
	f.TouchWrite(10, payload)
	if f.Accessed != (1<<3)|(1<<10) {
		t.Fatalf("accessed mask %b", f.Accessed)
	}
	if f.DirtyMsk != 1<<10 || !f.Dirty() {
		t.Fatalf("dirty mask %b", f.DirtyMsk)
	}
	if f.Data[10*mem.LineBytes] != 0x5A {
		t.Fatal("payload not copied into frame")
	}
}

func TestPageCacheDrop(t *testing.T) {
	pc := NewPageCache(4*mem.PageBytes, 4, false)
	pc.Insert(7)
	was, present := pc.Drop(7)
	if !present || was.LPA != 7 {
		t.Fatal("drop of resident page failed")
	}
	if pc.Peek(7) != nil {
		t.Fatal("page still resident after drop")
	}
	if _, present := pc.Drop(7); present {
		t.Fatal("double drop reported presence")
	}
}

func TestPageCacheLocalitySamples(t *testing.T) {
	// The victim Insert returns carries the lines touched while it was
	// resident: the controller books Fig. 5's read locality from it.
	pc := NewPageCache(2*mem.PageBytes, 2, false)
	_, f, _ := pc.Insert(0)
	for i := uint(0); i < 16; i++ {
		f.TouchRead(i)
	}
	pc.Insert(2)
	victim, _, _ := pc.Insert(4) // evicts page 0 (16/64 lines touched)
	if !victim.Valid || victim.LPA != 0 {
		t.Fatalf("victim = page %d (valid %v), want page 0", victim.LPA, victim.Valid)
	}
	if got := bits.OnesCount64(victim.Accessed); got != 16 {
		t.Fatalf("victim touched %d lines, want 16", got)
	}
}

// Property: residency matches a reference model under random
// insert/lookup/drop sequences, and occupancy never exceeds capacity.
func TestPageCacheAgainstModel(t *testing.T) {
	f := func(seed uint64) bool {
		pc := NewPageCache(8*mem.PageBytes, 4, false)
		rng := trace.NewRNG(seed)
		type entry struct {
			lpa   uint64
			stamp int
		}
		model := map[int][]entry{} // set -> entries
		stamp := 0
		setOf := func(lpa uint64) int { return int(lpa) % 2 } // 8 frames / 4 ways = 2 sets
		for op := 0; op < 2000; op++ {
			lpa := rng.Uint64n(24)
			set := setOf(lpa)
			switch rng.Intn(4) {
			case 0: // drop
				pc.Drop(lpa)
				es := model[set]
				for i := range es {
					if es[i].lpa == lpa {
						model[set] = append(es[:i], es[i+1:]...)
						break
					}
				}
			default: // lookup + insert on miss
				hit := pc.Lookup(lpa) != nil
				refHit := false
				es := model[set]
				for i := range es {
					if es[i].lpa == lpa {
						refHit = true
						stamp++
						es[i].stamp = stamp
						break
					}
				}
				if hit != refHit {
					return false
				}
				if !hit {
					if _, _, ok := pc.Insert(lpa); !ok {
						return false
					}
					stamp++
					if len(es) == 4 {
						lru := 0
						for i := range es {
							if es[i].stamp < es[lru].stamp {
								lru = i
							}
						}
						es = append(es[:lru], es[lru+1:]...)
					}
					model[set] = append(es, entry{lpa: lpa, stamp: stamp})
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
