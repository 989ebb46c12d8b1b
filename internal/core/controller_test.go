package core

import (
	"bytes"
	"testing"

	"skybyte/internal/dram"
	"skybyte/internal/flash"
	"skybyte/internal/ftl"
	"skybyte/internal/mem"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/trace"
)

type crig struct {
	eng *sim.Engine
	arr *flash.Array
	fl  *ftl.FTL
	c   *Controller
}

func newRig(cfg Config) *crig {
	eng := &sim.Engine{}
	geo := flash.Geometry{Channels: 4, ChipsPerChan: 1, DiesPerChip: 1, PlanesPerDie: 1, BlocksPerPlane: 16, PagesPerBlock: 32}
	arr := flash.New(eng, geo, flash.TimingULL)
	arr.TrackData = cfg.TrackData
	fl := ftl.New(eng, arr, ftl.Config{UsableRatio: 0.875, GCTriggerFree: 0.20, GCReplenishFree: 0.25})
	// Map the logical space so reads have real flash latency (the paper
	// preconditions the SSD and stores all data there initially).
	fl.Precondition(1.0, 0.1, 3)
	d := dram.New(eng, dram.SSDLPDDR4())
	return &crig{eng: eng, arr: arr, fl: fl, c: New(eng, cfg, arr, fl, d)}
}

func testConfig(writeLog bool) Config {
	return Config{
		WriteLogEnabled:       writeLog,
		WriteLogBytes:         16 * mem.KiB, // two halves of 128 lines
		CacheBytes:            64 * mem.PageBytes,
		CacheWays:             8,
		HintThreshold:         2 * sim.Microsecond,
		MigrationThreshold:    32,
		MigrationMinResidency: 5 * sim.Microsecond,
		TrackData:             true,
	}
}

func off(lpa, line uint64) uint64 { return lpa*mem.PageBytes + line*mem.LineBytes }

func linePayload(v byte) []byte { return bytes.Repeat([]byte{v}, mem.LineBytes) }

// readSync runs the engine until the read responds.
func (r *crig) readSync(t *testing.T, o uint64) ReadMeta {
	t.Helper()
	var meta ReadMeta
	got := false
	r.c.MemRd(o, true, func(m ReadMeta) { meta = m; got = true }, nil)
	r.eng.Run()
	if !got {
		t.Fatalf("read of offset %#x never responded", o)
	}
	return meta
}

func (r *crig) writeSync(t *testing.T, o uint64, data []byte) {
	t.Helper()
	done := false
	r.c.MemWr(o, data, true, 0, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatalf("write of offset %#x never accepted", o)
	}
}

func TestBaseReadMissThenHit(t *testing.T) {
	r := newRig(testConfig(false))
	m := r.readSync(t, off(5, 3))
	if m.Class != stats.SSDReadMiss {
		t.Fatalf("first read class = %v, want miss", m.Class)
	}
	if m.Flash < 2*sim.Microsecond {
		t.Fatalf("miss flash wait = %v, want ~3µs", m.Flash)
	}
	m2 := r.readSync(t, off(5, 7))
	if m2.Class != stats.SSDReadHit {
		t.Fatalf("second read in same page = %v, want hit (page-granular cache)", m2.Class)
	}
	if m2.Flash != 0 {
		t.Fatal("hit should have no flash component")
	}
	if m2.Index != cacheIndexLatency {
		t.Fatalf("Base index latency = %v, want 49ns", m2.Index)
	}
}

func TestSkyByteIndexLatencyIsMax(t *testing.T) {
	r := newRig(testConfig(true))
	r.writeSync(t, off(1, 1), linePayload(7))
	m := r.readSync(t, off(1, 1))
	if m.Index != 72*sim.Nanosecond {
		t.Fatalf("parallel probe latency = %v, want max(72,49)ns", m.Index)
	}
}

func TestBaseWriteMissDoesRMW(t *testing.T) {
	r := newRig(testConfig(false))
	start := r.eng.Now()
	var acceptedAt sim.Time
	r.c.MemWr(off(9, 0), linePayload(1), true, 0, func() { acceptedAt = r.eng.Now() })
	r.eng.Run()
	if acceptedAt-start < 2*sim.Microsecond {
		t.Fatalf("Base write miss accepted in %v: RMW page fetch expected", acceptedAt-start)
	}
	if r.arr.Stats().Reads == 0 {
		t.Fatal("RMW did not read the page from flash")
	}
}

func TestWriteLogAbsorbsWritesFast(t *testing.T) {
	r := newRig(testConfig(true))
	start := r.eng.Now()
	var acceptedAt sim.Time
	r.c.MemWr(off(9, 0), linePayload(1), true, 0, func() { acceptedAt = r.eng.Now() })
	r.eng.Run()
	if acceptedAt-start > sim.Microsecond {
		t.Fatalf("logged write accepted in %v: should be DRAM-fast", acceptedAt-start)
	}
	if r.arr.Stats().Reads != 0 || r.arr.Stats().Programs != 0 {
		t.Fatal("logged write touched flash")
	}
	if r.c.TenantLog()[0].LinesAbsorbed != 1 {
		t.Fatal("absorbed line not counted")
	}
}

func TestReadHitsWriteLog(t *testing.T) {
	r := newRig(testConfig(true))
	r.writeSync(t, off(3, 5), linePayload(0xAB))
	m := r.readSync(t, off(3, 5))
	if m.Class != stats.SSDReadHit {
		t.Fatalf("read of logged line = %v, want hit", m.Class)
	}
	if m.Data == nil || m.Data[0] != 0xAB {
		t.Fatal("logged data not returned")
	}
}

func TestFetchMergesLoggedLines(t *testing.T) {
	r := newRig(testConfig(true))
	// Log a line of page 4, then read a different line of page 4: the
	// fetch must install the page with the logged line merged.
	r.writeSync(t, off(4, 10), linePayload(0xCD))
	m := r.readSync(t, off(4, 11))
	if m.Class != stats.SSDReadMiss {
		t.Fatalf("class = %v, want miss", m.Class)
	}
	// Now the cached frame must contain the logged line.
	m2 := r.readSync(t, off(4, 10))
	if m2.Class != stats.SSDReadHit || m2.Data[0] != 0xCD {
		t.Fatalf("merged line wrong: class=%v data=%v", m2.Class, m2.Data[:1])
	}
}

func TestCompactionCoalescesWrites(t *testing.T) {
	r := newRig(testConfig(true))
	// 128 lines fill one half: 64 writes to page 0 + 64 to page 1 →
	// compaction should program exactly 2 pages (plus coalescing reads).
	for i := uint64(0); i < 64; i++ {
		r.writeSync(t, off(0, i), linePayload(byte(i)))
	}
	for i := uint64(0); i < 64; i++ {
		r.writeSync(t, off(1, i), linePayload(byte(i)))
	}
	// One more write triggers the switch.
	r.writeSync(t, off(2, 0), linePayload(9))
	r.eng.Run()
	if r.c.Compaction.Count != 1 {
		t.Fatalf("compactions = %d, want 1", r.c.Compaction.Count)
	}
	if got := r.c.Traffic.CompactWrites; got != 2 {
		t.Fatalf("compaction programs = %d, want 2 (64+64 lines coalesced)", got)
	}
	if r.c.Traffic.LinesCoalesced != 128 {
		t.Fatalf("coalesced lines = %d, want 128", r.c.Traffic.LinesCoalesced)
	}
}

func TestCompactionDropsStaleUpdates(t *testing.T) {
	r := newRig(testConfig(true))
	// Overwrite the same line 128 times: the log fills with duplicates but
	// compaction writes the page once with only the newest value.
	for i := 0; i < 128; i++ {
		r.writeSync(t, off(0, 0), linePayload(byte(i)))
	}
	r.writeSync(t, off(1, 0), linePayload(99)) // trigger switch
	r.eng.Run()
	if r.c.Traffic.CompactWrites != 1 {
		t.Fatalf("programs = %d, want 1", r.c.Traffic.CompactWrites)
	}
	m := r.readSync(t, off(0, 0))
	if m.Data[0] != 127 {
		t.Fatalf("newest value lost: got %d", m.Data[0])
	}
}

func TestDoubleBufferBackpressure(t *testing.T) {
	r := newRig(testConfig(true))
	// Fill both halves without running the engine (compaction can't make
	// progress), then verify the next write stalls until compaction runs.
	accepted := 0
	for i := uint64(0); i < 256; i++ {
		r.c.MemWr(off(i/64, i%64), linePayload(byte(i)), true, 0, func() { accepted++ })
	}
	stalled := false
	r.c.MemWr(off(60, 0), linePayload(1), true, 0, func() { stalled = true })
	if stalled {
		t.Fatal("write accepted while both halves full")
	}
	r.eng.Run()
	if !stalled {
		t.Fatal("pended write never drained")
	}
	if accepted != 256 {
		t.Fatalf("accepted = %d, want 256", accepted)
	}
}

func TestBaseDirtyEvictionPrograms(t *testing.T) {
	cfg := testConfig(false)
	cfg.CacheBytes = 8 * mem.PageBytes // tiny: 1 set x 8 ways
	cfg.CacheWays = 8
	r := newRig(cfg)
	// Dirty 9 distinct pages: at least one dirty eviction must program.
	for p := uint64(0); p < 9; p++ {
		r.writeSync(t, off(p, 0), linePayload(byte(p)))
	}
	if r.c.Traffic.HostPrograms == 0 {
		t.Fatal("dirty eviction did not program flash")
	}
}

func TestSkyByteEvictionIsFree(t *testing.T) {
	cfg := testConfig(true)
	cfg.CacheBytes = 8 * mem.PageBytes
	cfg.CacheWays = 8
	r := newRig(cfg)
	// Read 16 distinct pages (fills + evictions); no programs should occur.
	for p := uint64(0); p < 16; p++ {
		r.readSync(t, off(p, 0))
	}
	if r.arr.Stats().Programs != 0 {
		t.Fatal("clean/log-backed eviction programmed flash")
	}
}

func TestPrefetchNextPage(t *testing.T) {
	cfg := testConfig(false)
	cfg.PrefetchNext = true
	r := newRig(cfg)
	r.readSync(t, off(10, 0))
	if r.c.Traffic.PrefetchReads != 1 {
		t.Fatalf("prefetch reads = %d, want 1", r.c.Traffic.PrefetchReads)
	}
	m := r.readSync(t, off(11, 0))
	if m.Class != stats.SSDReadHit {
		t.Fatalf("prefetched page read = %v, want hit", m.Class)
	}
}

func TestHintFiresWhenEstimateExceedsThreshold(t *testing.T) {
	cfg := testConfig(true)
	cfg.HintEnabled = true
	cfg.HintThreshold = 2 * sim.Microsecond
	r := newRig(cfg)
	// tR = 3µs > 2µs: a cold miss must hint rather than respond.
	hinted := false
	responded := false
	r.c.MemRd(off(5, 0), true, func(ReadMeta) { responded = true }, func(est sim.Time) {
		hinted = true
		if est < 2*sim.Microsecond {
			t.Errorf("hint estimate %v below tR", est)
		}
	})
	r.eng.Run()
	if !hinted || responded {
		t.Fatalf("hinted=%v responded=%v; want hint only", hinted, responded)
	}
	// The fetch continued in the background: the page is now cached.
	m := r.readSync(t, off(5, 0))
	if m.Class != stats.SSDReadHit {
		t.Fatalf("re-issued read = %v, want hit (fetch continued)", m.Class)
	}
}

func TestHintThresholdRespected(t *testing.T) {
	cfg := testConfig(true)
	cfg.HintEnabled = true
	cfg.HintThreshold = 10 * sim.Microsecond // above tR: never hint on idle queue
	r := newRig(cfg)
	m := r.readSync(t, off(5, 0))
	if m.Class != stats.SSDReadMiss {
		t.Fatal("read should have completed as a miss without hinting")
	}
}

func TestMergedRequestHintUsesRemainingTime(t *testing.T) {
	cfg := testConfig(true)
	cfg.HintEnabled = true
	cfg.HintThreshold = 2 * sim.Microsecond
	r := newRig(cfg)
	hints := 0
	r.c.MemRd(off(5, 0), true, func(ReadMeta) {}, func(sim.Time) { hints++ })
	// 2.5µs later the fetch has ~0.5µs left: a merged request should NOT
	// hint (remaining < threshold) and instead wait for the data.
	responded := false
	r.eng.At(2500*sim.Nanosecond, func() {
		r.c.MemRd(off(5, 1), true, func(ReadMeta) { responded = true }, func(sim.Time) { hints++ })
	})
	r.eng.Run()
	if hints != 1 {
		t.Fatalf("hints = %d, want 1 (merged request should wait)", hints)
	}
	if !responded {
		t.Fatal("merged request never got data")
	}
}

func TestMigrationCandidateAndCompletion(t *testing.T) {
	cfg := testConfig(true)
	cfg.MigrationEnabled = true
	cfg.MigrationThreshold = 4
	cfg.MigrationMinResidency = 0 // this test exercises the count gate only
	r := newRig(cfg)
	var candidate uint64
	fired := 0
	r.c.OnPromoteCandidate = func(lpa uint64) { candidate = lpa; fired++ }
	r.writeSync(t, off(7, 0), linePayload(0x11))
	r.readSync(t, off(7, 1)) // fetch page into cache (touch 1)
	for i := 0; i < 5; i++ {
		r.readSync(t, off(7, uint64(i)))
	}
	if fired != 1 || candidate != 7 {
		t.Fatalf("candidate fired=%d lpa=%d, want once for page 7", fired, candidate)
	}
	if !r.c.MarkMigrating(7) {
		t.Fatal("MarkMigrating failed for resident page")
	}
	data, ok := r.c.FinishMigration(7)
	if !ok || data == nil {
		t.Fatal("FinishMigration failed")
	}
	if data[0] != 0x11 {
		t.Fatal("migrated page missing logged write")
	}
	if r.c.cache.Peek(7) != nil {
		t.Fatal("frame not dropped after migration")
	}
	if _, mapped := r.fl.Translate(7); mapped {
		t.Fatal("flash mapping not trimmed after migration")
	}
}

// The strongest oracle: random cacheline reads/writes through the full
// controller (write log, compaction, cache evictions, FTL GC underneath)
// must always return the newest written data.
func TestFunctionalModelRandomOps(t *testing.T) {
	for _, writeLog := range []bool{true, false} {
		cfg := testConfig(writeLog)
		cfg.CacheBytes = 16 * mem.PageBytes
		cfg.CacheWays = 4
		r := newRig(cfg)
		rng := trace.NewRNG(42)
		model := map[uint64]byte{}     // lineNo -> newest value
		version := map[uint64]uint64{} // lineNo -> write count
		const pages = 64
		var mismatches int
		for op := 0; op < 2500; op++ {
			lpa := rng.Uint64n(pages)
			line := rng.Uint64n(mem.LinesPerPage)
			o := off(lpa, line)
			ln := o >> mem.LineShift
			if rng.Bool(0.45) {
				v := byte(rng.Uint64())
				r.c.MemWr(o, linePayload(v), true, 0, func() {})
				model[ln] = v
				version[ln]++
			} else if want, wrote := model[ln], version[ln] > 0; wrote {
				issueVer := version[ln]
				r.c.MemRd(o, true, func(m ReadMeta) {
					// Skip if a newer write raced the response; otherwise
					// the response must carry the issue-time value.
					if version[ln] != issueVer {
						return
					}
					if m.Data == nil || m.Data[0] != want {
						mismatches++
					}
				}, nil)
			} else {
				r.c.MemRd(o, true, func(ReadMeta) {}, nil)
			}
			if op%97 == 0 {
				r.eng.Run()
			}
		}
		r.eng.Run()
		if mismatches != 0 {
			t.Fatalf("writeLog=%v: %d data mismatches", writeLog, mismatches)
		}
		if err := r.fl.CheckInvariants(); err != nil {
			t.Fatalf("writeLog=%v: %v", writeLog, err)
		}
	}
}

func TestWriteTrafficReduction(t *testing.T) {
	// The paper's Fig. 18 mechanism in miniature: sparse writes to a hot
	// line set, interleaved with reads that thrash the page cache. Base
	// flushes a near-empty dirty page per write; the log coalesces
	// duplicates across its much larger effective window.
	run := func(writeLog bool) uint64 {
		cfg := testConfig(writeLog)
		cfg.CacheBytes = 16 * mem.PageBytes
		cfg.CacheWays = 4
		r := newRig(cfg)
		rng := trace.NewRNG(5)
		for op := 0; op < 1500; op++ {
			// One sparse write to a small hot set of lines...
			r.c.MemWr(off(uint64(op%32), 0), linePayload(byte(op)), true, 0, func() {})
			// ...plus reads that evict pages from the Base cache.
			r.c.MemRd(off(32+rng.Uint64n(200), 0), true, func(ReadMeta) {}, nil)
			r.c.MemRd(off(32+rng.Uint64n(200), 0), true, func(ReadMeta) {}, nil)
			if op%13 == 0 {
				r.eng.Run()
			}
		}
		r.eng.Run()
		return r.arr.Stats().Programs
	}
	base := run(false)
	sky := run(true)
	if sky >= base {
		t.Fatalf("write log did not reduce programs: base=%d sky=%d", base, sky)
	}
	if float64(base)/float64(sky+1) < 2 {
		t.Fatalf("reduction only %.1fx (base=%d sky=%d); want >2x", float64(base)/float64(sky+1), base, sky)
	}
}

func TestLocalityTracking(t *testing.T) {
	cfg := testConfig(false)
	cfg.TrackLocality = true
	cfg.CacheBytes = 4 * mem.PageBytes
	cfg.CacheWays = 4
	r := newRig(cfg)
	// Touch 16 of 64 lines of several pages, forcing evictions.
	for p := uint64(0); p < 8; p++ {
		for l := uint64(0); l < 16; l++ {
			r.readSync(t, off(p, l))
		}
	}
	d := r.c.ReadLocality
	if len(d.Samples) == 0 {
		t.Fatal("no read locality samples")
	}
	for _, s := range d.Samples {
		if s < 0.2 || s > 0.3 {
			t.Fatalf("sample %v, want 16/64=0.25", s)
		}
	}
}

// A promoted page leaves the data cache through FinishMigration, not
// eviction; its frame still books one read-locality sample.
func TestMigrationBooksReadLocality(t *testing.T) {
	cfg := testConfig(false)
	cfg.TrackLocality = true
	r := newRig(cfg)
	for l := uint64(0); l < 16; l++ {
		r.readSync(t, off(9, l))
	}
	if len(r.c.ReadLocality.Samples) != 0 {
		t.Fatal("locality booked while the page is still cached")
	}
	if !r.c.MarkMigrating(9) {
		t.Fatal("MarkMigrating failed for resident page")
	}
	if _, ok := r.c.FinishMigration(9); !ok {
		t.Fatal("FinishMigration failed")
	}
	if got := r.c.ReadLocality.Samples; len(got) != 1 || got[0] != 0.25 {
		t.Fatalf("read locality = %v, want one 16/64 = 0.25 sample", got)
	}
}

func TestHeatPersistsAcrossResidencies(t *testing.T) {
	// §III-C tracks access counts per flash page, not per cache residency:
	// a page evicted and refetched keeps accumulating heat.
	cfg := testConfig(true)
	cfg.MigrationEnabled = true
	cfg.MigrationThreshold = 6
	cfg.MigrationMinResidency = 0
	cfg.CacheBytes = 4 * mem.PageBytes // tiny: evictions guaranteed
	cfg.CacheWays = 4
	r := newRig(cfg)
	fired := 0
	r.c.OnPromoteCandidate = func(lpa uint64) {
		if lpa == 9 {
			fired++
		}
	}
	// Interleave accesses to page 9 with thrashing reads so page 9 is
	// evicted between touches; its heat must still reach the threshold.
	for i := 0; i < 12; i++ {
		r.readSync(t, off(9, uint64(i%4)))
		for p := uint64(20); p < 28; p++ {
			r.readSync(t, off(p, 0))
		}
	}
	if fired == 0 {
		t.Fatal("heat did not persist across cache residencies")
	}
}
