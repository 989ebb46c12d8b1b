package ftl

import (
	"testing"

	"skybyte/internal/flash"
	"skybyte/internal/mem"
	"skybyte/internal/sim"
	"skybyte/internal/trace"
)

func tinySetup() (*sim.Engine, *flash.Array, *FTL) {
	eng := &sim.Engine{}
	geo := flash.Geometry{Channels: 2, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 8, PagesPerBlock: 8}
	arr := flash.New(eng, geo, flash.TimingULL)
	f := New(eng, arr, testConfig)
	return eng, arr, f
}

// testConfig is the FTL the tests below were written against: 87.5%
// usable, GC from 20% free blocks back up to 25%.
var testConfig = Config{UsableRatio: 0.875, GCTriggerFree: 0.20, GCReplenishFree: 0.25}

func TestLogicalCapacity(t *testing.T) {
	_, arr, f := tinySetup()
	want := uint64(float64(arr.Geo.TotalPages()) * 0.875)
	if f.LogicalPages() != want {
		t.Fatalf("LogicalPages = %d, want %d", f.LogicalPages(), want)
	}
	if f.LogicalBytes() != want*mem.PageBytes {
		t.Fatal("LogicalBytes")
	}
}

func TestWriteThenTranslate(t *testing.T) {
	eng, _, f := tinySetup()
	if _, ok := f.Translate(3); ok {
		t.Fatal("unwritten page should be unmapped")
	}
	f.Write(3, nil, nil)
	eng.Run()
	ppa, ok := f.Translate(3)
	if !ok {
		t.Fatal("written page unmapped")
	}
	ch, ok := f.ChannelOf(3)
	if !ok || ch != f.geo.ChannelOfPPA(ppa) {
		t.Fatal("ChannelOf inconsistent")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfPlaceUpdate(t *testing.T) {
	eng, _, f := tinySetup()
	f.Write(5, nil, nil)
	eng.Run()
	ppa1, _ := f.Translate(5)
	f.Write(5, nil, nil)
	eng.Run()
	ppa2, _ := f.Translate(5)
	if ppa1 == ppa2 {
		t.Fatal("update mapped to the same physical page (in-place)")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadUnmappedAsyncZeroTime(t *testing.T) {
	eng, arr, f := tinySetup()
	called := false
	comp := f.Read(7, func(d []byte) {
		called = true
		if d != nil {
			t.Error("unmapped read should return nil data")
		}
		if eng.Now() != 0 {
			t.Error("unmapped read should take no simulated time")
		}
	})
	if comp != 0 {
		t.Fatalf("predicted completion = %v, want now", comp)
	}
	if called {
		t.Fatal("unmapped read must complete asynchronously (event-ordered)")
	}
	eng.Run()
	if !called {
		t.Fatal("unmapped read never completed")
	}
	if arr.Stats().Reads != 0 {
		t.Fatal("unmapped read must not touch flash")
	}
}

func TestWritesStripeAcrossChannels(t *testing.T) {
	eng, _, f := tinySetup()
	chans := map[int]int{}
	for lpa := uint64(0); lpa < 8; lpa++ {
		f.Write(lpa, nil, nil)
		ch, _ := f.ChannelOf(lpa)
		chans[ch]++
	}
	eng.Run()
	if len(chans) != 2 || chans[0] != 4 || chans[1] != 4 {
		t.Fatalf("write striping uneven: %v", chans)
	}
}

func TestGCReclaimsAndPreservesMapping(t *testing.T) {
	eng, _, f := tinySetup()
	// Logical space is 7/8 of 128 pages = 112 pages. Fill it, then keep
	// rewriting a subset to force GC repeatedly.
	n := f.LogicalPages()
	for lpa := uint64(0); lpa < n; lpa++ {
		f.Write(lpa, nil, nil)
	}
	rng := trace.NewRNG(1)
	for i := 0; i < 500; i++ {
		f.Write(rng.Uint64n(n), nil, nil)
	}
	eng.Run()
	if f.Stats().GCInvocations == 0 || f.Stats().Erases == 0 {
		t.Fatalf("GC never ran: %+v", f.Stats())
	}
	if f.MappedPages() != n {
		t.Fatalf("mapped pages = %d, want %d", f.MappedPages(), n)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGCPreservesData(t *testing.T) {
	eng, arr, f := tinySetup()
	arr.TrackData = true
	n := f.LogicalPages()
	mk := func(lpa uint64) []byte {
		p := make([]byte, mem.PageBytes)
		p[0] = byte(lpa)
		p[1] = byte(lpa >> 8)
		return p
	}
	for lpa := uint64(0); lpa < n; lpa++ {
		f.Write(lpa, mk(lpa), nil)
	}
	rng := trace.NewRNG(2)
	for i := 0; i < 300; i++ {
		lpa := rng.Uint64n(n)
		f.Write(lpa, mk(lpa), nil)
	}
	eng.Run()
	if f.Stats().GCPrograms == 0 {
		t.Fatal("expected GC relocations")
	}
	// Every logical page must still read back its own payload.
	for lpa := uint64(0); lpa < n; lpa++ {
		lpa := lpa
		f.Read(lpa, func(d []byte) {
			if d == nil || d[0] != byte(lpa) || d[1] != byte(lpa>>8) {
				t.Errorf("lpa %d corrupted after GC", lpa)
			}
		})
	}
	eng.Run()
}

func TestGCActiveWindow(t *testing.T) {
	eng, _, f := tinySetup()
	n := f.LogicalPages()
	for lpa := uint64(0); lpa < n; lpa++ {
		f.Write(lpa, nil, nil)
	}
	rng := trace.NewRNG(3)
	for i := 0; i < 200; i++ {
		f.Write(rng.Uint64n(n), nil, nil)
	}
	// GC was triggered; at time zero its erase backlog is pending.
	if !f.GCActive(0) && !f.GCActive(1) {
		t.Fatal("GC should be active on at least one channel")
	}
	eng.Run()
	if f.GCActive(0) || f.GCActive(1) {
		t.Fatal("GC should be drained after Run")
	}
}

func TestTrim(t *testing.T) {
	eng, _, f := tinySetup()
	f.Write(9, nil, nil)
	eng.Run()
	f.Trim(9)
	if _, ok := f.Translate(9); ok {
		t.Fatal("trimmed page still mapped")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrecondition(t *testing.T) {
	eng, _, f := tinySetup()
	f.Precondition(1.0, 0.3, 42)
	if eng.Pending() != 0 {
		t.Fatal("preconditioning must not enqueue flash work")
	}
	if f.MappedPages() != f.LogicalPages() {
		t.Fatalf("mapped = %d, want %d", f.MappedPages(), f.LogicalPages())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The device should be near capacity so that writes soon trigger GC.
	f.Write(0, nil, nil)
	for i := 0; i < 100; i++ {
		f.Write(uint64(i%int(f.LogicalPages())), nil, nil)
	}
	eng.Run()
	if f.Stats().GCInvocations == 0 {
		t.Fatal("post-precondition writes never triggered GC")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateOutOfRangePanics(t *testing.T) {
	_, _, f := tinySetup()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range lpa should panic")
		}
	}()
	f.Translate(f.LogicalPages())
}

// Randomized model check: FTL mapping behaves like a plain map under a
// random write/trim workload with GC churn.
func TestRandomizedAgainstModel(t *testing.T) {
	eng, _, f := tinySetup()
	n := f.LogicalPages()
	model := map[uint64]bool{}
	rng := trace.NewRNG(99)
	for op := 0; op < 3000; op++ {
		lpa := rng.Uint64n(n)
		if rng.Bool(0.9) {
			f.Write(lpa, nil, nil)
			model[lpa] = true
		} else {
			f.Trim(lpa)
			delete(model, lpa)
		}
		if op%512 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	for lpa := uint64(0); lpa < n; lpa++ {
		_, mapped := f.Translate(lpa)
		if mapped != model[lpa] {
			t.Fatalf("lpa %d mapped=%v model=%v", lpa, mapped, model[lpa])
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
