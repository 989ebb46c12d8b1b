package ftl

import (
	"fmt"
	"reflect"
	"strings"
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

// TestSteadyStateAllocatesNothing: once the event pool and GC's
// relocation buffer are warm, rewrites that trigger GC and reads of an
// unmapped page allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	eng, _, f := tinySetup()
	n := f.LogicalPages()
	hole := n - 1 // never written
	for lpa := uint64(0); lpa < hole; lpa++ {
		f.Write(lpa, nil, nil)
	}
	rng := trace.NewRNG(3)
	read := func([]byte) {}
	cycle := func() {
		for i := 0; i < 64; i++ {
			f.Write(rng.Uint64n(hole), nil, nil)
		}
		f.Read(hole, read)
		eng.Run()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	gcs := f.Stats().GCInvocations
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm rewrite cycle allocated %.2f times, want 0", allocs)
	}
	if f.Stats().GCInvocations == gcs {
		t.Fatal("no GC ran in the measured cycles")
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

// preconditionByPage is the page-at-a-time fill Precondition replaced: n
// round-robin allocPage calls, then the same random rewrite phase.
func preconditionByPage(f *FTL, fillRatio, rewriteRatio float64, seed uint64) {
	n := uint64(fillRatio * float64(f.logicalPages))
	for lpa := uint64(0); lpa < n; lpa++ {
		ch := f.nextChan
		f.nextChan = (f.nextChan + 1) % f.geo.Channels
		f.mapPage(lpa, f.allocPage(ch))
	}
	f.rewrite(n, rewriteRatio, seed)
}

func TestPreconditionMatchesPageOrder(t *testing.T) {
	tiny := flash.Geometry{Channels: 4, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 8, PagesPerBlock: 8}
	odd := flash.Geometry{Channels: 3, ChipsPerChan: 1, DiesPerChip: 2, PlanesPerDie: 1, BlocksPerPlane: 7, PagesPerBlock: 10}
	full := Config{UsableRatio: 1.0, GCTriggerFree: 0.20, GCReplenishFree: 0.25}
	// pages returns the fill ratio that maps exactly n pages of logical.
	pages := func(n, logical int) float64 { return (float64(n) + 0.5) / float64(logical) }
	cases := []struct {
		name     string
		geo      flash.Geometry
		cfg      Config
		fill     float64
		rewrite  float64
		wantFill uint64
		// startChan is the round-robin position before the fill.
		startChan int
	}{
		{"empty", tiny, testConfig, 0, 0.25, 0, 0},
		{"fewer-pages-than-channels", tiny, testConfig, pages(3, 224), 0.25, 3, 0},
		{"ends-mid-block", tiny, testConfig, pages(101, 224), 0.25, 101, 0},
		{"ends-on-block-boundary", tiny, testConfig, pages(4*8*5, 224), 0.25, 4 * 8 * 5, 0},
		{"every-channel-full", tiny, full, 1.0, 0, 256, 0},
		{"odd-geometry", odd, testConfig, 0.85, 0.25, 311, 0},
		{"odd-geometry-full", odd, full, 1.0, 0, 420, 0},
		{"starts-mid-rotation", tiny, testConfig, pages(101, 224), 0.25, 101, 3},
		{"odd-starts-mid-rotation", odd, testConfig, 0.85, 0.25, 311, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *FTL {
				eng := &sim.Engine{}
				f := New(eng, flash.New(eng, tc.geo, flash.TimingULL), tc.cfg)
				f.nextChan = tc.startChan
				return f
			}
			got, want := build(), build()
			if n := uint64(tc.fill * float64(got.logicalPages)); n != tc.wantFill {
				t.Fatalf("fill maps %d pages, case wants %d", n, tc.wantFill)
			}
			got.Precondition(tc.fill, tc.rewrite, 42)
			preconditionByPage(want, tc.fill, tc.rewrite, 42)
			for _, c := range []struct {
				field     string
				got, want any
			}{
				{"l2p", got.l2p, want.l2p},
				{"p2l", got.p2l, want.p2l},
				{"blocks", got.blocks, want.blocks},
				{"freeBlocks", got.freeBlocks, want.freeBlocks},
				{"open", got.open, want.open},
				{"nextChan", got.nextChan, want.nextChan},
				{"stats", got.stats, want.stats},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%s differs from the page-order fill", c.field)
				}
			}
			if got.MappedPages() != tc.wantFill {
				t.Errorf("mapped %d pages, want %d", got.MappedPages(), tc.wantFill)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// expectPanic runs f and fails unless it panics with a message containing
// want.
func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

func TestPreconditionNeedsFreshFTL(t *testing.T) {
	eng, _, f := tinySetup()
	f.Write(0, nil, nil)
	eng.Run()
	expectPanic(t, "already in use", func() { f.Precondition(0.5, 0, 1) })

	_, _, f = tinySetup()
	f.Precondition(0.5, 0.25, 1)
	expectPanic(t, "already in use", func() { f.Precondition(0.5, 0.25, 1) })
}

func TestPreconditionPanicsWhenChannelRunsDry(t *testing.T) {
	eng := &sim.Engine{}
	geo := flash.Geometry{Channels: 2, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 8, PagesPerBlock: 8}
	// More logical than physical pages: a full fill cannot fit.
	f := New(eng, flash.New(eng, geo, flash.TimingULL), Config{UsableRatio: 1.5, GCTriggerFree: 0.20, GCReplenishFree: 0.25})
	expectPanic(t, "ran out of free blocks on channel 0", func() { f.Precondition(1.0, 0, 1) })
}

func TestCheckGeometryBound(t *testing.T) {
	// 2·(2^31−1) = 2^32−2 pages is the largest table a slot addresses;
	// 3·1431655765 = 2^32−1 is one too many.
	fits := flash.Geometry{Channels: 2, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 1<<31 - 1, PagesPerBlock: 1}
	over := flash.Geometry{Channels: 3, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 1431655765, PagesPerBlock: 1}
	if err := CheckGeometry(fits); err != nil {
		t.Fatalf("%d pages: %v", fits.TotalPages(), err)
	}
	if CheckGeometry(over) == nil {
		t.Fatalf("%d pages accepted", over.TotalPages())
	}
	expectPanic(t, "32-bit mapping table", func() { New(&sim.Engine{}, &flash.Array{Geo: over}, testConfig) })
}
