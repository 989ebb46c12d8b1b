package system

import (
	"strings"
	"testing"

	"skybyte/internal/mem"
	"skybyte/internal/osched"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/trace"
	"skybyte/internal/workloads"
)

// synthStream emits a simple data-intensive loop: one memory access to a
// zipfian-random cacheline of a CXL arena (write with probability wr),
// followed by a short compute burst. The zipfian skew gives the SSD DRAM a
// realistic hit rate (the paper's workloads see >90 % of requests under
// 200 ns thanks to the cache).
func synthStream(seed uint64, footprintPages uint64, wr float64, burst uint32) trace.Stream {
	rng := trace.NewRNG(seed)
	zipf := trace.NewZipf(rng, footprintPages, 0.99)
	return trace.FuncStream(func() (trace.Record, bool) {
		if rng.Bool(0.5) {
			return trace.Record{Kind: trace.Compute, N: burst}, true
		}
		page := zipf.ScrambledNext()
		a := mem.CXLBase + mem.Addr(page*mem.PageBytes+rng.Uint64n(mem.LinesPerPage)*mem.LineBytes)
		k := trace.Load
		if rng.Bool(wr) {
			k = trace.Store
		}
		return trace.Record{Kind: k, Addr: a}, true
	})
}

// scatterStream models a pointer-chasing workload with streaming writes:
// dependent zipfian loads plus stores that walk new cachelines so dirty
// lines cannot linger in the CPU caches — the access shape that exposes
// Base-CSSD's RMW write misses and rewards both the write log and the
// coordinated context switch.
func scatterStream(seed uint64, footprintPages uint64, wr float64, burst uint32) trace.Stream {
	rng := trace.NewRNG(seed)
	zipf := trace.NewZipf(rng, footprintPages, 0.9)
	const writeRegionPages = 1024 // cycled so the log coalesces revisits
	wcursor := seed * 977
	return trace.FuncStream(func() (trace.Record, bool) {
		if rng.Bool(0.4) {
			return trace.Record{Kind: trace.Compute, N: burst}, true
		}
		if rng.Bool(wr) {
			wcursor++
			page := wcursor % writeRegionPages
			line := (wcursor * 7) % mem.LinesPerPage // sparse lines per page
			a := mem.CXLBase + mem.Addr(page*mem.PageBytes+line*mem.LineBytes)
			return trace.Record{Kind: trace.Store, Addr: a}, true
		}
		page := zipf.ScrambledNext()
		a := mem.CXLBase + mem.Addr(page*mem.PageBytes+rng.Uint64n(mem.LinesPerPage)*mem.LineBytes)
		if rng.Bool(0.7) {
			return trace.Record{Kind: trace.LoadDep, Addr: a}, true
		}
		return trace.Record{Kind: trace.Load, Addr: a}, true
	})
}

// hotStream repeatedly touches a tiny set of pages (migration bait).
func hotStream(seed uint64, pages uint64) trace.Stream {
	rng := trace.NewRNG(seed)
	return trace.FuncStream(func() (trace.Record, bool) {
		a := mem.CXLBase + mem.Addr(rng.Uint64n(pages)*mem.PageBytes) + mem.Addr(rng.Uint64n(64)*64)
		return trace.Record{Kind: trace.Load, Addr: a}, true
	})
}

func runVariant(t *testing.T, v Variant, threads int, perThread uint64, stream func(i int) trace.Stream) *Result {
	t.Helper()
	cfg := ScaledConfig().WithVariant(v)
	s := New(cfg)
	for i := 0; i < threads; i++ {
		s.AddThread(stream(i), perThread)
	}
	r := s.Run()
	if r.Instructions < perThread*uint64(threads) {
		t.Fatalf("%s: retired %d, want >= %d", v, r.Instructions, perThread*uint64(threads))
	}
	if r.ExecTime <= 0 {
		t.Fatalf("%s: no execution time", v)
	}
	return r
}

func TestAllVariantsComplete(t *testing.T) {
	mk := func(i int) trace.Stream { return synthStream(uint64(i)+1, 4096, 0.3, 64) }
	for _, v := range []Variant{DRAMOnly, BaseCSSD, SkyByteC, SkyByteP, SkyByteW, SkyByteCP, SkyByteWP, SkyByteFull, SkyByteCT, SkyByteWCT, AstriFlashCXL} {
		v := v
		t.Run(string(v), func(t *testing.T) {
			r := runVariant(t, v, 4, 8000, mk)
			if r.Variant != string(v) {
				t.Fatalf("variant label = %q", r.Variant)
			}
		})
	}
}

func TestDRAMOnlyFasterThanBase(t *testing.T) {
	mk := func(i int) trace.Stream { return synthStream(uint64(i)+1, 8192, 0.25, 32) }
	d := runVariant(t, DRAMOnly, 4, 20000, mk)
	b := runVariant(t, BaseCSSD, 4, 20000, mk)
	ratio := float64(b.ExecTime) / float64(d.ExecTime)
	if ratio < 1.5 {
		t.Fatalf("Base-CSSD only %.2fx slower than DRAM; Fig. 2 expects 1.5-31x", ratio)
	}
}

func TestSkyByteFullBeatsBase(t *testing.T) {
	mk := func(i int) trace.Stream { return scatterStream(uint64(i)+1, 32768, 0.3, 16) }
	base := runVariant(t, BaseCSSD, 8, 30000, mk)
	full := runVariant(t, SkyByteFull, 24, 10000, mk) // same total work, 3x threads
	// At ULL timing an unloaded miss (~3.4µs) costs barely more than a
	// switch (2µs), so the margin here is structurally thin; the paper's
	// larger gaps come from queue-inflated flash latencies (Table III),
	// exercised by the workloads package. This test guards the sign.
	if full.ExecTime >= base.ExecTime {
		t.Fatalf("SkyByte-Full (%v) not faster than Base-CSSD (%v)", full.ExecTime, base.ExecTime)
	}
}

func TestWriteLogCutsFlashPrograms(t *testing.T) {
	mk := func(i int) trace.Stream { return scatterStream(uint64(i)+1, 32768, 0.35, 16) }
	base := runVariant(t, BaseCSSD, 4, 40000, mk)
	w := runVariant(t, SkyByteW, 4, 40000, mk)
	if base.Traffic.TotalPrograms() == 0 {
		t.Fatal("workload generated no Base-CSSD flash programs; test is vacuous")
	}
	if w.Traffic.TotalPrograms() >= base.Traffic.TotalPrograms() {
		t.Fatalf("write log did not reduce programs: base=%d w=%d",
			base.Traffic.TotalPrograms(), w.Traffic.TotalPrograms())
	}
}

func TestContextSwitchesHappenAndHelp(t *testing.T) {
	mk := func(i int) trace.Stream { return synthStream(uint64(i)+1, 8192, 0.2, 32) }
	c := runVariant(t, SkyByteC, 16, 4000, mk)
	if c.HintsSent == 0 || c.HintSwitches == 0 {
		t.Fatalf("no SkyByte-Delay activity: hints=%d switches=%d", c.HintsSent, c.HintSwitches)
	}
	if c.Bound.CtxSwitch == 0 {
		t.Fatal("switch time not accounted")
	}
}

func TestAdaptiveMigrationPromotes(t *testing.T) {
	// The hot set must exceed the CPU caches (so the SSD keeps seeing the
	// accesses) but stay small enough that sustained hotness is clear.
	r := runVariant(t, SkyByteP, 2, 120000, func(i int) trace.Stream {
		return hotStream(uint64(i)+1, 512)
	})
	if r.Migration.Promotions == 0 {
		t.Fatal("hot pages never promoted")
	}
	if r.Breakdown.Counts[stats.HostRW] == 0 {
		t.Fatal("no host-served accesses after promotion")
	}
}

func TestMigrationRespectsPoolCapacity(t *testing.T) {
	cfg := ScaledConfig().WithVariant(SkyByteP)
	cfg.PromotedMaxBytes = 8 * mem.PageBytes // tiny pool: 8 pages
	cfg.MigrationThresh = 4
	s := New(cfg)
	s.AddThread(hotStream(1, 64), 40000)
	r := s.Run()
	if r.Migration.Promotions == 0 {
		t.Fatal("no promotions")
	}
	if r.Migration.Promotions > 8 && r.Migration.Demotions == 0 {
		t.Fatal("pool overflow without demotions")
	}
	if s.pool.Len() > 8 {
		t.Fatalf("promoted pages %d exceed pool capacity 8", s.pool.Len())
	}
}

func TestBreakdownAndAMATRecorded(t *testing.T) {
	r := runVariant(t, SkyByteFull, 8, 10000, func(i int) trace.Stream {
		return synthStream(uint64(i)+1, 8192, 0.3, 32)
	})
	if r.Breakdown.Total() == 0 {
		t.Fatal("no requests classified")
	}
	if r.AMAT.Accesses == 0 || r.AMAT.Mean() == 0 {
		t.Fatal("AMAT not recorded")
	}
	if r.ReadLat.Count() == 0 {
		t.Fatal("latency histogram empty")
	}
	if r.MPKI <= 0 {
		t.Fatal("MPKI not computed")
	}
}

func TestBoundednessSane(t *testing.T) {
	r := runVariant(t, BaseCSSD, 4, 10000, func(i int) trace.Stream {
		return synthStream(uint64(i)+1, 8192, 0.25, 16)
	})
	mf := r.Bound.MemFrac()
	if mf < 0.5 || mf > 1.0 {
		t.Fatalf("Base-CSSD memory-bound fraction = %v; Fig. 4 expects 0.77-0.998", mf)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64) {
		cfg := ScaledConfig().WithVariant(SkyByteFull)
		s := New(cfg)
		for i := 0; i < 6; i++ {
			s.AddThread(synthStream(uint64(i)+1, 4096, 0.3, 32), 6000)
		}
		r := s.Run()
		return r.ExecTime, s.Eng.Fired()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
}

func TestSchedulingPolicies(t *testing.T) {
	for _, p := range []string{"RR", "RANDOM", "FAIRNESS"} {
		cfg := ScaledConfig().WithVariant(SkyByteFull)
		cfg.Policy = osched.PolicyKind(p)
		s := New(cfg)
		for i := 0; i < 12; i++ {
			s.AddThread(synthStream(uint64(i)+1, 4096, 0.3, 32), 4000)
		}
		r := s.Run()
		if r.Instructions < 48000 {
			t.Fatalf("policy %s lost instructions", p)
		}
	}
}

// TestTable2ConfigsSane: ConfigAt(1) has Table II's capacities, and every
// accepted scale keeps the 1/64 machine's capacity ratios under one rule.
func TestTable2ConfigsSane(t *testing.T) {
	p := ConfigAt(1)
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"flash", p.Geometry.Bytes(), 128 * mem.GiB},
		{"SSD DRAM", uint64(p.SSDDRAMBytes), 512 * mem.MiB},
		{"write log", uint64(p.WriteLogBytes), 64 * mem.MiB},
		{"promotion budget", uint64(p.PromotedMaxBytes), 2 * mem.GiB},
		{"LLC", uint64(p.LLCBytes), 16 * mem.MiB},
	} {
		if c.got != c.want {
			t.Errorf("ConfigAt(1) %s = %d bytes, want %d", c.name, c.got, c.want)
		}
	}
	sc := ScaledConfig()
	if sc.Fingerprint() != ConfigAt(MaxScale).Fingerprint() {
		t.Fatal("ScaledConfig is not ConfigAt(MaxScale)")
	}
	if got := sc.Geometry.Bytes(); got != workloads.RefFlashBytes {
		t.Fatalf("1/64 flash = %d bytes, workloads size footprints for %d", got, workloads.RefFlashBytes)
	}
	dies := func(c Config) int { return c.Geometry.Channels * c.Geometry.ChipsPerChan * c.Geometry.DiesPerChip }
	for n := 1; n <= MaxScale; n *= 2 {
		c := ConfigAt(n)
		k := uint64(MaxScale / n)
		for _, r := range []struct {
			name      string
			got, want uint64
		}{
			{"flash", c.Geometry.Bytes(), k * sc.Geometry.Bytes()},
			{"SSD DRAM", uint64(c.SSDDRAMBytes), k * uint64(sc.SSDDRAMBytes)},
			{"write log", uint64(c.WriteLogBytes), k * uint64(sc.WriteLogBytes)},
			{"promotion budget", uint64(c.PromotedMaxBytes), k * uint64(sc.PromotedMaxBytes)},
			{"LLC", uint64(c.LLCBytes), k * uint64(sc.LLCBytes)},
		} {
			if r.got != r.want {
				t.Errorf("ConfigAt(%d) %s = %d bytes, want %d (%dx the 1/64 machine)", n, r.name, r.got, r.want, k)
			}
		}
		if dies(c) != dies(sc) {
			t.Errorf("ConfigAt(%d) has %d dies, want the fixed %d", n, dies(c), dies(sc))
		}
		if err := c.WithVariant(SkyByteFull).Validate(); err != nil {
			t.Errorf("ConfigAt(%d): %v", n, err)
		}
	}
}

// TestParseScale: the scale is written 1/n, n a power of two from 1 to
// 64; anything else is rejected.
func TestParseScale(t *testing.T) {
	for s, want := range map[string]int{"1/1": 1, "1/16": 16, "1/64": 64} {
		if n, err := ParseScale(s); err != nil || n != want {
			t.Errorf("ParseScale(%q) = %d, %v; want %d", s, n, err, want)
		}
	}
	for _, s := range []string{"1/3", "1/128", "1/0", "2/64", "64", "", "1/-4", "1/x"} {
		if n, err := ParseScale(s); err == nil {
			t.Errorf("ParseScale(%q) = %d, want an error", s, n)
		}
	}
}

// TestValidateRejectsCacheBelowOneSet: an SSD DRAM whose data cache (what
// the write log leaves) cannot hold one CacheWays-page set is rejected by
// Validate and by New, naming both sizes.
func TestValidateRejectsOversizedGeometry(t *testing.T) {
	// Table II's flash with 128x the blocks: 2^32 pages, more than the
	// FTL's 32-bit mapping tables address.
	c := ConfigAt(1)
	c.Geometry.BlocksPerPlane *= 128
	if c.Geometry.TotalPages() != 1<<32 {
		t.Fatalf("test geometry has %d pages", c.Geometry.TotalPages())
	}
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "32-bit mapping table") {
		t.Fatalf("Validate = %v, want the mapping-table bound", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("New built the machine")
		}
	}()
	New(c)
}

func TestValidateRejectsCacheBelowOneSet(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"log fills the DRAM", func() Config {
			c := ScaledConfig().WithVariant(SkyByteW)
			c.WriteLogBytes = 8 * mem.MiB
			return c
		}()},
		{"1 MiB DRAM beside a 1 MiB log", func() Config {
			c := ScaledConfig().WithVariant(SkyByteW)
			c.SSDDRAMBytes = 1 * mem.MiB
			return c
		}()},
	} {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a data cache below one set", c.name)
			continue
		}
		for _, size := range []string{stats.FormatGB(uint64(c.cfg.SSDDRAMBytes)), stats.FormatGB(uint64(c.cfg.WriteLogBytes))} {
			if !strings.Contains(err.Error(), size) {
				t.Errorf("%s: error %q does not name %s", c.name, err, size)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New built the machine", c.name)
				}
			}()
			New(c.cfg)
		}()
	}
	// The same sizes are fine without the log, and one set exactly fits.
	ok := ScaledConfig().WithVariant(BaseCSSD)
	ok.SSDDRAMBytes = 1 * mem.MiB
	if err := ok.Validate(); err != nil {
		t.Errorf("Base-CSSD on 1 MiB of SSD DRAM: %v", err)
	}
	ok = ScaledConfig().WithVariant(SkyByteW)
	ok.WriteLogBytes = ok.SSDDRAMBytes - ok.CacheWays*mem.PageBytes
	if err := ok.Validate(); err != nil {
		t.Errorf("a data cache of exactly one set: %v", err)
	}
}

// TestValidateRejectsROBBeyondReplayRing: a context switch rewinds up to
// a ROB's worth of records, so the ROB must fit the replay ring with the
// two-record margin; the largest ROB that does is accepted.
func TestValidateRejectsROBBeyondReplayRing(t *testing.T) {
	c := ScaledConfig()
	c.CPU.ROB = trace.ReplayCap - 2
	if err := c.Validate(); err != nil {
		t.Fatalf("ROB %d: %v", c.CPU.ROB, err)
	}
	c.CPU.ROB++
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "replay ring") {
		t.Fatalf("ROB %d: Validate = %v, want the replay-ring bound", c.CPU.ROB, err)
	}
}

func TestTPPMigrationPromotes(t *testing.T) {
	cfg := ScaledConfig().WithVariant(SkyByteCT)
	s := New(cfg)
	for i := 0; i < 4; i++ {
		s.AddThread(hotStream(uint64(i)+1, 512), 40000)
	}
	r := s.Run()
	if r.Migration.Promotions == 0 {
		t.Fatal("TPP sampling never promoted a hot page")
	}
	if r.Breakdown.Counts[stats.HostRW] == 0 {
		t.Fatal("no host-served accesses after TPP promotion")
	}
}

func TestAstriFlashServesFromHostCache(t *testing.T) {
	cfg := ScaledConfig().WithVariant(AstriFlashCXL)
	s := New(cfg)
	for i := 0; i < 8; i++ {
		s.AddThread(hotStream(uint64(i)+1, 256), 20000)
	}
	r := s.Run()
	// After the hot pages land in the host page cache, accesses must be
	// classified H-R/W (AstriFlash serves from host DRAM).
	if r.Breakdown.Counts[stats.HostRW] == 0 {
		t.Fatal("AstriFlash host cache never served accesses")
	}
	if !allFinished(s) {
		t.Fatal("threads did not finish")
	}
}

func TestAstriFlashWritebackOnDirtyEviction(t *testing.T) {
	cfg := ScaledConfig().WithVariant(AstriFlashCXL)
	cfg.PromotedMaxBytes = 32 * mem.PageBytes // tiny host cache: force evictions
	s := New(cfg)
	s.AddThread(scatterStream(1, 8192, 0.5, 8), 60000)
	r := s.Run()
	if r.Traffic.DemoteWrites == 0 {
		t.Fatal("dirty host-cache evictions never wrote back to the SSD")
	}
}

func TestSingleThreadSingleCore(t *testing.T) {
	cfg := ScaledConfig().WithVariant(SkyByteFull)
	cfg.Cores = 1
	s := New(cfg)
	s.AddThread(synthStream(1, 4096, 0.3, 32), 8000)
	r := s.Run()
	if r.Instructions < 8000 {
		t.Fatal("lone thread on one core did not finish")
	}
}

func TestZeroWorkThread(t *testing.T) {
	cfg := ScaledConfig().WithVariant(BaseCSSD)
	s := New(cfg)
	s.AddThread(synthStream(1, 1024, 0.2, 16), 0) // empty budget
	s.AddThread(synthStream(2, 1024, 0.2, 16), 2000)
	r := s.Run()
	if r.Instructions < 2000 {
		t.Fatal("run with an empty thread did not complete")
	}
}

func TestMoreThreadsThanWorkStillTerminates(t *testing.T) {
	cfg := ScaledConfig().WithVariant(SkyByteFull)
	s := New(cfg)
	for i := 0; i < 32; i++ { // 4x cores, tiny traces
		s.AddThread(synthStream(uint64(i)+1, 1024, 0.2, 16), 500)
	}
	r := s.Run()
	if r.Instructions < 32*500 {
		t.Fatalf("retired %d of %d", r.Instructions, 32*500)
	}
}

func allFinished(s *System) bool { return s.finished == len(s.threads) }
