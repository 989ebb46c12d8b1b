package trace

import (
	"math"
	"testing"
	"testing/quick"

	"skybyte/internal/mem"
)

func TestRecordInstructions(t *testing.T) {
	if (Record{Kind: Compute, N: 17}).Instructions() != 17 {
		t.Fatal("compute burst count")
	}
	if (Record{Kind: Load}).Instructions() != 1 || (Record{Kind: Store}).Instructions() != 1 {
		t.Fatal("memory op count")
	}
	if Compute.String() != "compute" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("kind names")
	}
}

func TestSliceStream(t *testing.T) {
	s := &SliceStream{Recs: []Record{{Kind: Load, Addr: 64}, {Kind: Compute, N: 3}}}
	r, ok := s.Next()
	if !ok || r.Kind != Load {
		t.Fatal("first record")
	}
	r, ok = s.Next()
	if !ok || r.N != 3 {
		t.Fatal("second record")
	}
	if _, ok = s.Next(); ok {
		t.Fatal("stream should be exhausted")
	}
}

func TestOffsetShiftsMemoryRecordsOnly(t *testing.T) {
	src := &SliceStream{Recs: []Record{
		{Kind: Load, Addr: mem.CXLBase},
		{Kind: Compute, N: 5},
		{Kind: Store, Addr: mem.CXLBase + 64},
		{Kind: LoadDep, Addr: mem.CXLBase + 128},
	}}
	o := &Offset{Src: src, Delta: 2 * mem.PageBytes}
	want := []mem.Addr{mem.CXLBase + 2*mem.PageBytes, 0, mem.CXLBase + 2*mem.PageBytes + 64, mem.CXLBase + 2*mem.PageBytes + 128}
	for i := 0; ; i++ {
		r, ok := o.Next()
		if !ok {
			if i != 4 {
				t.Fatalf("stream ended after %d records", i)
			}
			break
		}
		if r.Kind == Compute {
			if r.N != 5 {
				t.Fatal("compute record mutated")
			}
			continue
		}
		if r.Addr != want[i] {
			t.Fatalf("record %d addr = %#x, want %#x", i, uint64(r.Addr), uint64(want[i]))
		}
	}
}

func TestLimitedClipsExactly(t *testing.T) {
	src := FuncStream(func() (Record, bool) { return Record{Kind: Compute, N: 10}, true })
	l := &Limited{Src: src, Budget: 25}
	var total uint64
	for {
		r, ok := l.Next()
		if !ok {
			break
		}
		total += r.Instructions()
	}
	if total != 25 {
		t.Fatalf("total instructions = %d, want exactly 25", total)
	}
}

func TestLimitedStopsOnSourceEnd(t *testing.T) {
	l := &Limited{Src: &SliceStream{Recs: []Record{{Kind: Load, Addr: 0}}}, Budget: 100}
	n := 0
	for {
		_, ok := l.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("records = %d, want 1", n)
	}
}

func TestBufGen(t *testing.T) {
	units := 0
	g := &BufGen{Refill: func(emit func(Record)) bool {
		if units == 3 {
			return false
		}
		units++
		emit(Record{Kind: Load, Addr: mem.Addr(units * 64)})
		emit(Record{Kind: Compute, N: 5})
		return true
	}}
	var recs []Record
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	if len(recs) != 6 {
		t.Fatalf("records = %d, want 6", len(recs))
	}
	if recs[0].Addr != 64 || recs[4].Addr != 192 {
		t.Fatalf("unexpected record ordering: %+v", recs)
	}
}

// Once its buffer has grown to a refill's size, BufGen.Next allocates
// nothing: the emit callback is bound once, not per refill.
func TestBufGenSteadyStateAllocatesNothing(t *testing.T) {
	g := &BufGen{Refill: func(emit func(Record)) bool {
		emit(Record{Kind: Load, Addr: 64})
		emit(Record{Kind: Compute, N: 5})
		emit(Record{Kind: Store, Addr: 128})
		return true
	}}
	// One run consumes one refill's three records, so a per-refill
	// allocation shows as a whole allocation per run.
	refill := func() {
		for i := 0; i < 3; i++ {
			g.Next()
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(100, refill); allocs != 0 {
		t.Fatalf("steady-state refill made %.0f allocations, want 0", allocs)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds produce suspiciously similar streams")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	var buckets [10]int
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/10) > n/10*0.1 {
			t.Fatalf("bucket %d count %d deviates >10%% from uniform", i, c)
		}
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if m := sum / n; math.Abs(m-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", m)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(11)
	z := NewZipf(r, 10000, 0.99)
	const n = 200000
	counts := make(map[uint64]int)
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate and the top-10 ranks must hold a large share.
	top10 := 0
	for rank := uint64(0); rank < 10; rank++ {
		top10 += counts[rank]
	}
	if float64(counts[0])/n < 0.05 {
		t.Fatalf("rank-0 share %v too small for theta=0.99", float64(counts[0])/n)
	}
	if float64(top10)/n < 0.2 {
		t.Fatalf("top-10 share %v too small for theta=0.99", float64(top10)/n)
	}
	// Low skew should look much flatter.
	z2 := NewZipf(NewRNG(11), 10000, 0.2)
	c0 := 0
	for i := 0; i < n; i++ {
		if z2.Next() == 0 {
			c0++
		}
	}
	if float64(c0)/n > 0.01 {
		t.Fatalf("theta=0.2 rank-0 share %v too large", float64(c0)/n)
	}
}

func TestZipfDomain(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := uint64(nRaw%1000) + 1
		z := NewZipf(NewRNG(seed), n, 0.9)
		for i := 0; i < 100; i++ {
			if z.Next() >= n {
				return false
			}
			if z.ScrambledNext() >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayerPassthrough(t *testing.T) {
	src := &SliceStream{Recs: []Record{
		{Kind: Compute, N: 10},
		{Kind: Load, Addr: 64},
		{Kind: Store, Addr: 128},
	}}
	r := NewReplayer(src)
	rec, idx, ok := r.Next()
	if !ok || rec.Kind != Compute || idx != 0 {
		t.Fatal("record 0")
	}
	rec, idx, ok = r.Next()
	if !ok || rec.Kind != Load || idx != 10 {
		t.Fatalf("record 1: idx=%d", idx)
	}
	rec, idx, ok = r.Next()
	if !ok || rec.Kind != Store || idx != 11 {
		t.Fatal("record 2")
	}
	if _, _, ok = r.Next(); ok {
		t.Fatal("should be exhausted")
	}
	if !r.Done() {
		t.Fatal("Done should be true")
	}
	if r.NextIdx() != 12 {
		t.Fatalf("NextIdx = %d, want 12", r.NextIdx())
	}
}

func TestReplayerRewind(t *testing.T) {
	src := &SliceStream{Recs: []Record{
		{Kind: Load, Addr: 0},
		{Kind: Compute, N: 5},
		{Kind: Load, Addr: 64},
		{Kind: Load, Addr: 128},
	}}
	r := NewReplayer(src)
	for i := 0; i < 4; i++ {
		if _, _, ok := r.Next(); !ok {
			t.Fatal("premature end")
		}
	}
	// Rewind to the load at instruction index 6 (after 1 + 5 instructions).
	r.RewindTo(6)
	rec, idx, ok := r.Next()
	if !ok || rec.Addr != 64 || idx != 6 {
		t.Fatalf("rewind replay: rec=%+v idx=%d", rec, idx)
	}
	rec, idx, ok = r.Next()
	if !ok || rec.Addr != 128 || idx != 7 {
		t.Fatal("continue after replay")
	}
	if _, _, ok = r.Next(); ok {
		t.Fatal("should now be exhausted")
	}
}

func TestReplayerRewindTwice(t *testing.T) {
	src := &SliceStream{Recs: []Record{
		{Kind: Load, Addr: 0}, {Kind: Load, Addr: 64}, {Kind: Load, Addr: 128},
	}}
	r := NewReplayer(src)
	r.Next()
	r.Next()
	r.Next()
	r.RewindTo(1)
	r.Next() // replays idx 1
	r.RewindTo(0)
	rec, idx, _ := r.Next()
	if idx != 0 || rec.Addr != 0 {
		t.Fatalf("second rewind: idx=%d", idx)
	}
	// Drain: 0,1,2 remain.
	n := 0
	for {
		_, _, ok := r.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("remaining records = %d, want 2", n)
	}
}

func TestReplayerRewindMissingPanics(t *testing.T) {
	r := NewReplayer(&SliceStream{Recs: []Record{{Kind: Load, Addr: 0}}})
	r.Next()
	defer func() {
		if recover() == nil {
			t.Fatal("RewindTo of unknown index should panic")
		}
	}()
	r.RewindTo(999)
}

// Property: for any random record sequence and any rewind point within the
// last few delivered records, replay yields exactly the same records as the
// original delivery.
func TestReplayerReplayFidelity(t *testing.T) {
	f := func(seed uint64, kinds []uint8) bool {
		if len(kinds) == 0 {
			return true
		}
		recs := make([]Record, len(kinds))
		for i, k := range kinds {
			switch k % 3 {
			case 0:
				recs[i] = Record{Kind: Compute, N: uint32(k%7) + 1}
			case 1:
				recs[i] = Record{Kind: Load, Addr: mem.Addr(i * 64)}
			default:
				recs[i] = Record{Kind: Store, Addr: mem.Addr(i * 64)}
			}
		}
		r := NewReplayer(&SliceStream{Recs: recs})
		type delivered struct {
			rec Record
			idx uint64
		}
		var got []delivered
		for {
			rec, idx, ok := r.Next()
			if !ok {
				break
			}
			got = append(got, delivered{rec, idx})
		}
		if len(got) != len(recs) {
			return false
		}
		// Rewind to a random delivered record and replay the tail.
		k := int(NewRNG(seed).Uint64n(uint64(len(got))))
		r.RewindTo(got[k].idx)
		for i := k; i < len(got); i++ {
			rec, idx, ok := r.Next()
			if !ok || rec != got[i].rec || idx != got[i].idx {
				return false
			}
		}
		_, _, ok := r.Next()
		return !ok && r.Done()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayerLongStreamAges(t *testing.T) {
	// Deliver far more records than the ring capacity; rewinding to a very
	// recent record must still work.
	n := ReplayCap * 3
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Kind: Load, Addr: mem.Addr(i * 64)}
	}
	r := NewReplayer(&SliceStream{Recs: recs})
	var lastIdx uint64
	for i := 0; i < n; i++ {
		_, idx, ok := r.Next()
		if !ok {
			t.Fatal("premature end")
		}
		lastIdx = idx
	}
	r.RewindTo(lastIdx)
	rec, idx, ok := r.Next()
	if !ok || idx != lastIdx || rec.Addr != mem.Addr((n-1)*64) {
		t.Fatal("rewind to newest after aging failed")
	}
}
