package flash

import (
	"testing"
	"testing/quick"

	"skybyte/internal/mem"
	"skybyte/internal/sim"
)

func tinyGeo() Geometry {
	return Geometry{Channels: 2, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 4, PagesPerBlock: 8}
}

func TestGeometryMath(t *testing.T) {
	g := tinyGeo()
	if g.TotalBlocks() != 8 {
		t.Fatalf("TotalBlocks = %d", g.TotalBlocks())
	}
	if g.TotalPages() != 64 {
		t.Fatalf("TotalPages = %d", g.TotalPages())
	}
	if g.Bytes() != 64*mem.PageBytes {
		t.Fatalf("Bytes = %d", g.Bytes())
	}
}

func TestAddressingRoundTrip(t *testing.T) {
	g := tinyGeo()
	f := func(raw uint16) bool {
		ppa := uint64(raw) % g.TotalPages()
		b := g.BlockOfPPA(ppa)
		if uint64(b)*uint64(g.PagesPerBlock) > ppa {
			return false
		}
		if g.ChannelOfPPA(ppa) != g.ChannelOfBlock(b) {
			return false
		}
		return g.ChannelOfPPA(ppa) < g.Channels
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDieParallelReadTiming(t *testing.T) {
	var eng sim.Engine
	a := New(&eng, tinyGeo(), TimingULL) // 1 die per channel
	bus := DefaultBusPerPage
	// Two reads on channel 0 (block 0) share one die: tR then tR again.
	c1 := a.Read(0, nil)
	c2 := a.Read(1, nil)
	// One read on channel 1 (block 1 = pages 8..15) is independent.
	c3 := a.Read(8, nil)
	eng.Run()
	if c1 != 3*sim.Microsecond+bus {
		t.Fatalf("first read = %v, want tR+bus", c1)
	}
	if c2 != 6*sim.Microsecond+bus {
		t.Fatalf("second read on same die = %v, want 2*tR+bus", c2)
	}
	if c3 != 3*sim.Microsecond+bus {
		t.Fatalf("independent channel read = %v", c3)
	}
}

func TestDiesOverlapOnOneChannel(t *testing.T) {
	var eng sim.Engine
	geo := tinyGeo()
	geo.ChipsPerChan = 4 // 4 dies per channel
	a := New(&eng, geo, TimingULL)
	// Four reads on channel 0 overlap on four dies; completions are
	// staggered only by bus transfers.
	var last sim.Time
	for i := 0; i < 4; i++ {
		last = a.Read(uint64(i), nil)
	}
	eng.Run()
	if last >= 2*TimingULL.Read {
		t.Fatalf("4 reads took %v; dies did not overlap", last)
	}
}

func TestProgramDoesNotBlockBusLong(t *testing.T) {
	var eng sim.Engine
	geo := tinyGeo()
	geo.ChipsPerChan = 2
	a := New(&eng, geo, TimingULL)
	// A program occupies the bus only for the transfer; a read issued
	// right after must not wait out the 100µs program.
	a.Program(0, nil, nil)
	c := a.Read(1, nil)
	eng.Run()
	if c >= 50*sim.Microsecond {
		t.Fatalf("read behind program completed at %v; programs must not hog the bus", c)
	}
}

func TestQueueCountsAndEstimate(t *testing.T) {
	var eng sim.Engine
	a := New(&eng, tinyGeo(), TimingULL)
	a.Read(0, nil)
	a.Program(1, nil, nil)
	a.Erase(0, nil)
	c := a.Counts(0)
	if c.Reads != 1 || c.Programs != 1 || c.Erases != 1 {
		t.Fatalf("counts = %+v", c)
	}
	// Algorithm 1: tR*(1+1) + tProg*1 + tBERS*1 = 6 + 100 + 1000 µs.
	want := 2*TimingULL.Read + TimingULL.Program + TimingULL.Erase
	if got := a.EstimateDelay(0); got != want {
		t.Fatalf("EstimateDelay = %v, want %v", got, want)
	}
	eng.Run()
	c = a.Counts(0)
	if c.Reads != 0 || c.Programs != 0 || c.Erases != 0 {
		t.Fatalf("counts after drain = %+v", c)
	}
	if a.EstimateDelay(0) != TimingULL.Read {
		t.Fatal("estimate on idle channel should be a single tR")
	}
}

// Property: the Algorithm 1 estimate is the FIFO upper bound — the actual
// die-parallel completion of a read behind a random backlog never exceeds
// it (plus bus transfers, which the formula does not count).
func TestEstimateIsConservativeBound(t *testing.T) {
	f := func(ops []uint8) bool {
		var eng sim.Engine
		a := New(&eng, tinyGeo(), TimingULL)
		n := len(ops)
		if n > 20 {
			n = 20
		}
		for _, op := range ops[:n] {
			switch op % 3 {
			case 0:
				a.Read(0, nil)
			case 1:
				a.Program(0, nil, nil)
			default:
				a.Erase(0, nil)
			}
		}
		est := a.EstimateDelay(0)
		slack := sim.Time(n+1) * DefaultBusPerPage
		actual := a.Read(2, nil)
		eng.Run()
		return actual <= est+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateFormula(t *testing.T) {
	var eng sim.Engine
	a := New(&eng, tinyGeo(), TimingULL)
	a.Read(0, nil)
	a.Program(1, nil, nil)
	a.Erase(0, nil)
	// Algorithm 1 verbatim: tR*(1+1) + tProg*1 + tBERS*1.
	want := 2*TimingULL.Read + TimingULL.Program + TimingULL.Erase
	if got := a.EstimateDelay(0); got != want {
		t.Fatalf("EstimateDelay = %v, want %v", got, want)
	}
}

func TestDataPath(t *testing.T) {
	var eng sim.Engine
	a := New(&eng, tinyGeo(), TimingULL)
	a.TrackData = true
	payload := make([]byte, mem.PageBytes)
	payload[0], payload[4095] = 0xAB, 0xCD
	a.Program(5, payload, nil)
	var got []byte
	a.Read(5, func(d []byte) { got = d })
	eng.Run()
	if got == nil || got[0] != 0xAB || got[4095] != 0xCD {
		t.Fatal("read did not return programmed data")
	}
	// Erase block 0 (pages 0..7) drops the payload.
	a.Erase(0, nil)
	eng.Run()
	if a.PeekData(5) != nil {
		t.Fatal("erase did not drop page data")
	}
}

func TestStatsAndUtilization(t *testing.T) {
	var eng sim.Engine
	a := New(&eng, tinyGeo(), TimingULL)
	a.Read(0, nil)
	a.Program(0, nil, nil)
	a.Erase(1, nil) // channel 1
	eng.Run()
	s := a.Stats()
	if s.Reads != 1 || s.Programs != 1 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
	wantBusy := TimingULL.Read + TimingULL.Program + TimingULL.Erase
	if s.BusyTime != wantBusy {
		t.Fatalf("BusyTime = %v, want %v", s.BusyTime, wantBusy)
	}
	if u := a.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestTimingClassesOrdered(t *testing.T) {
	// Sanity: faster classes really are faster (used by Fig. 22).
	if !(TimingULL.Read < TimingULL2.Read && TimingULL2.Read < TimingSLC.Read && TimingSLC.Read < TimingMLC.Read) {
		t.Fatal("read latency ordering violated")
	}
}

func TestEraseOutOfRangePanics(t *testing.T) {
	var eng sim.Engine
	a := New(&eng, tinyGeo(), TimingULL)
	defer func() {
		if recover() == nil {
			t.Fatal("erase beyond geometry should panic")
		}
	}()
	a.Erase(999, nil)
}
