package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{250 * Picosecond, "250ps"},
		{3 * Microsecond, "3µs"},
		{100 * Microsecond, "100µs"},
		{Millisecond, "1ms"},
		{2 * Second, "2s"},
		{-Microsecond, "-1µs"},
		{70 * Nanosecond, "70ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Errorf("Microseconds = %v, want 1.5", got)
	}
	if got := (2 * Millisecond).Seconds(); got != 0.002 {
		t.Errorf("Seconds = %v, want 0.002", got)
	}
	if got := (3 * Microsecond).Nanoseconds(); got != 3000 {
		t.Errorf("Nanoseconds = %v, want 3000", got)
	}
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max broken")
	}
}

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", e.Fired())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO at index %d: got %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	var got []Time
	e.At(10, func() {
		got = append(got, e.Now())
		e.After(5, func() { got = append(got, e.Now()) })
		e.At(12, func() { got = append(got, e.Now()) })
	})
	e.Run()
	want := []Time{10, 12, 15}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

// Property: for any set of scheduled times, the engine fires events in
// non-decreasing time order and ends with Now() == max time.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var e Engine
		var fired []Time
		for _, ti := range times {
			at := Time(ti)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: heap behaves like a sorted multiset under random interleaving of
// scheduling (always in the future) and stepping.
func TestEngineRandomInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var e Engine
	var fired []Time
	pending := 0
	for op := 0; op < 5000; op++ {
		if pending == 0 || rng.Intn(2) == 0 {
			at := e.Now() + Time(rng.Intn(1000))
			e.At(at, func() { fired = append(fired, e.Now()) })
			pending++
		} else {
			e.Step()
			pending--
		}
	}
	e.Run()
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatal("events fired out of order under random interleaving")
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1024; j++ {
			e.At(Time(j%97), func() {})
		}
		e.Run()
	}
}

// hTestCollect is a typed test handler: appends A0 to the []uint64
// pointed to by P1. Registered at init per the RegisterHandler contract.
var hTestCollect HandlerID

func init() {
	hTestCollect = RegisterHandler(func(a0 uint64, p1, p2 any) {
		s := p1.(*[]uint64)
		*s = append(*s, a0)
	})
}

// TestEngineTypedHandlerFIFO: typed (AtH) and closure (At) events at
// one instant share the sequence space, so mixing the two forms keeps
// same-instant FIFO.
func TestEngineTypedHandlerFIFO(t *testing.T) {
	var e Engine
	var got []uint64
	e.AtH(10, hTestCollect, 0, &got, nil)
	e.At(10, func() { got = append(got, 1) })
	e.AtH(10, hTestCollect, 2, &got, nil)
	e.Run()
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("typed/closure tie-break not FIFO: %v", got)
		}
	}
}

// TestEngineCalendarHeapCrossover: events straddling the calendar
// horizon (near-future bucketed queue vs far-future heap) still fire
// in global (time, seq) order — including FIFO ties between an event
// that sat in the heap and one scheduled later into the calendar for
// the same instant.
func TestEngineCalendarHeapCrossover(t *testing.T) {
	const far = Time(horizon) + 100 // beyond the calendar horizon at t=0
	var e Engine
	var got []uint64
	e.AtH(far, hTestCollect, 0, &got, nil) // heap resident
	e.At(far-50, func() {
		// Now inside the horizon of `far`: calendar resident, same
		// instant as the heap event but a later sequence number.
		e.AtH(far, hTestCollect, 1, &got, nil)
		e.AtH(far+10, hTestCollect, 2, &got, nil)
	})
	e.AtH(5, hTestCollect, 99, &got, nil) // near event fires first
	e.Run()
	want := []uint64{99, 0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("crossover order got %v, want %v", got, want)
		}
	}
	if e.Now() != far+10 {
		t.Fatalf("Now = %v, want %v", e.Now(), far+10)
	}
}

// TestEnginePoolReuse: after Run drains, the event records are on the
// free list and a steady-state schedule/step cycle allocates nothing —
// the property the whole inner-loop rebuild exists for.
func TestEnginePoolReuse(t *testing.T) {
	var e Engine
	var sink []uint64
	for i := 0; i < 64; i++ {
		e.AtH(Time(i), hTestCollect, uint64(i), &sink, nil)
	}
	e.Run()
	if e.free == nil {
		t.Fatal("drained engine has an empty free list")
	}
	free := 0
	for ev := e.free; ev != nil; ev = ev.next {
		free++
	}
	if free != 64 {
		t.Fatalf("free list holds %d records, want 64", free)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.AtH(e.Now()+Time(i), hTestCollect, uint64(i), &sink, nil)
		}
		for e.Pending() > 0 {
			e.Step()
			sink = sink[:0]
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state typed scheduling allocated %.1f times per cycle, want 0", allocs)
	}
}

// TestEngineGrowsPoolBySlab: a dry pool grows by a slab of records per
// allocation, so warming up to n pending events costs n/slabEvents
// allocations (plus the engine), not n.
func TestEngineGrowsPoolBySlab(t *testing.T) {
	var sink []uint64
	const n = 10 * slabEvents
	allocs := testing.AllocsPerRun(5, func() {
		e := new(Engine)
		for i := 0; i < n; i++ {
			e.AtH(Time(i), hTestCollect, uint64(i), &sink, nil)
		}
	})
	if max := float64(1 + n/slabEvents); allocs > max {
		t.Fatalf("scheduling %d events on a fresh engine allocated %.0f times, want at most %.0f", n, allocs, max)
	}
}

// TestEngineDeterminism: two engines fed the identical schedule report
// identical Fired counts and fire orders — the probe the byte-identity
// suite leans on, checked here at the engine level.
func TestEngineDeterminism(t *testing.T) {
	run := func() (uint64, []uint64) {
		var e Engine
		var got []uint64
		rng := rand.New(rand.NewSource(99))
		var schedule func(depth int)
		seq := uint64(0)
		schedule = func(depth int) {
			at := e.Now() + Time(rng.Intn(int(horizon)*2))
			id := seq
			seq++
			e.At(at, func() {
				got = append(got, id)
				if depth < 3 && rng.Intn(4) == 0 {
					schedule(depth + 1)
				}
			})
		}
		for i := 0; i < 500; i++ {
			schedule(0)
		}
		e.Run()
		return e.Fired(), got
	}
	f1, g1 := run()
	f2, g2 := run()
	if f1 != f2 {
		t.Fatalf("Fired() diverged: %d vs %d", f1, f2)
	}
	if len(g1) != len(g2) {
		t.Fatalf("fire orders diverged in length: %d vs %d", len(g1), len(g2))
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("fire orders diverged at %d: %d vs %d", i, g1[i], g2[i])
		}
	}
}
