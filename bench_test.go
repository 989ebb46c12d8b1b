// Benchmarks that regenerate the paper's evaluation: one benchmark per
// table and figure (DESIGN.md §4 maps each to its experiment). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark prints its reproduced table once and reports headline
// metrics (speedups, reductions) via b.ReportMetric, so bench output is a
// paper-vs-measured record. Results are memoised within the shared harness:
// figures that reuse design points (14/16/17/18) pay for them once.
package skybyte_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"skybyte"
	"skybyte/internal/experiments"
	"skybyte/internal/system"
	"skybyte/internal/trace"
)

var (
	harnessOnce sync.Once
	harness     *experiments.Harness
	printed     = map[string]bool{}
	printedMu   sync.Mutex
)

func bench(b *testing.B, f func(h *experiments.Harness) experiments.Table) experiments.Table {
	b.Helper()
	harnessOnce.Do(func() { harness = experiments.NewHarness(experiments.DefaultOptions()) })
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = f(harness)
	}
	printedMu.Lock()
	if !printed[tab.ID] {
		printed[tab.ID] = true
		fmt.Fprintln(os.Stdout, tab.String())
	}
	printedMu.Unlock()
	return tab
}

func BenchmarkTable1WorkloadCharacteristics(b *testing.B) {
	bench(b, (*experiments.Harness).Table1)
}

func BenchmarkFig02ExecTimeDRAMvsCXLSSD(b *testing.B) {
	bench(b, (*experiments.Harness).Fig02)
}

func BenchmarkFig03LatencyCDF(b *testing.B) {
	bench(b, (*experiments.Harness).Fig03)
}

func BenchmarkFig04Boundedness(b *testing.B) {
	bench(b, (*experiments.Harness).Fig04)
}

func BenchmarkFig05ReadLocalityCDF(b *testing.B) {
	bench(b, (*experiments.Harness).Fig05)
}

func BenchmarkFig06WriteLocalityCDF(b *testing.B) {
	bench(b, (*experiments.Harness).Fig06)
}

func BenchmarkFig09ThresholdSweep(b *testing.B) {
	bench(b, (*experiments.Harness).Fig09)
}

func BenchmarkFig10SchedulingPolicies(b *testing.B) {
	bench(b, (*experiments.Harness).Fig10)
}

func BenchmarkFig14OverallSpeedup(b *testing.B) {
	tab := bench(b, (*experiments.Harness).Fig14)
	// The last row is the geometric mean; the SkyByte-Full column carries
	// the headline normalized execution time (paper: 1/6.11 ≈ 0.164).
	if n := len(tab.Rows); n > 0 {
		geo := tab.Rows[n-1]
		for i, hd := range tab.Header {
			if hd == string(system.SkyByteFull) && i < len(geo) {
				var norm float64
				fmt.Sscanf(geo[i], "%f", &norm)
				if norm > 0 {
					b.ReportMetric(1/norm, "x-speedup-full")
				}
			}
		}
	}
}

func BenchmarkFig15ThreadScaling(b *testing.B) {
	bench(b, (*experiments.Harness).Fig15)
}

func BenchmarkFig16RequestBreakdown(b *testing.B) {
	bench(b, (*experiments.Harness).Fig16)
}

func BenchmarkFig17AMAT(b *testing.B) {
	bench(b, (*experiments.Harness).Fig17)
}

func BenchmarkFig18FlashWriteTraffic(b *testing.B) {
	bench(b, (*experiments.Harness).Fig18)
}

func BenchmarkFig19WriteLogSizePerf(b *testing.B) {
	bench(b, (*experiments.Harness).Fig19)
}

func BenchmarkFig20WriteLogSizeTraffic(b *testing.B) {
	bench(b, (*experiments.Harness).Fig20)
}

func BenchmarkFig21CacheSizeSweep(b *testing.B) {
	bench(b, (*experiments.Harness).Fig21)
}

func BenchmarkFig22FlashLatency(b *testing.B) {
	bench(b, (*experiments.Harness).Fig22)
}

func BenchmarkFig23MigrationMechanisms(b *testing.B) {
	bench(b, (*experiments.Harness).Fig23)
}

func BenchmarkTable3FlashReadLatency(b *testing.B) {
	bench(b, (*experiments.Harness).Table3)
}

func BenchmarkCostEffectiveness(b *testing.B) {
	bench(b, (*experiments.Harness).CostEffectiveness)
}

func BenchmarkFigExtExtensionScenarios(b *testing.B) {
	bench(b, (*experiments.Harness).FigExt)
}

func BenchmarkWriteLogIndexFootprint(b *testing.B) {
	bench(b, (*experiments.Harness).WriteLogStats)
}

// BenchmarkAblationFreeMSHROnSquash measures the §III-A default (freeing
// MSHRs of squashed requests immediately) against holding them until data
// arrives.
func BenchmarkAblationFreeMSHROnSquash(b *testing.B) {
	w, err := skybyte.WorkloadByName("bfs-dense")
	if err != nil {
		b.Fatal(err)
	}
	var on, off float64
	for i := 0; i < b.N; i++ {
		cfgOn := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
		rOn := skybyte.Run(cfgOn, w, 24, 8000, 1)
		cfgOff := cfgOn
		cfgOff.CPU.FreeMSHROnSquash = false
		rOff := skybyte.Run(cfgOff, w, 24, 8000, 1)
		on, off = rOn.ExecTime.Seconds(), rOff.ExecTime.Seconds()
	}
	b.ReportMetric(off/on, "x-slowdown-holding-MSHRs")
}

// BenchmarkAblationPrefetch measures Base-CSSD's next-page prefetch.
func BenchmarkAblationPrefetch(b *testing.B) {
	w, err := skybyte.WorkloadByName("radix")
	if err != nil {
		b.Fatal(err)
	}
	var on, off float64
	for i := 0; i < b.N; i++ {
		cfgOn := skybyte.ScaledConfig().WithVariant(skybyte.BaseCSSD)
		rOn := skybyte.Run(cfgOn, w, 8, 24000, 1)
		cfgOff := cfgOn
		cfgOff.PrefetchNext = false
		rOff := skybyte.Run(cfgOff, w, 8, 24000, 1)
		on, off = rOn.ExecTime.Seconds(), rOff.ExecTime.Seconds()
	}
	b.ReportMetric(off/on, "x-slowdown-without-prefetch")
}

// BenchmarkSimulatorThroughput reports raw simulation speed (simulated
// instructions per wall second) — the engineering figure of merit.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := skybyte.WorkloadByName("ycsb")
	if err != nil {
		b.Fatal(err)
	}
	cfg := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
	var instr uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := skybyte.Run(cfg, w, 24, 8000, uint64(i+1))
		instr += r.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

// setupSink keeps BenchmarkSystemSetup's machine live past New.
var setupSink *system.System

// BenchmarkSystemSetup measures wiring one design point: system.New,
// which builds and preconditions the FTL, with nothing simulated.
func BenchmarkSystemSetup(b *testing.B) {
	cfg := system.ScaledConfig().WithVariant(system.SkyByteFull)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setupSink = system.New(cfg)
	}
}

// BenchmarkCampaignThroughput measures the whole-sweep wall-clock of the
// plan/execute campaign runner at parallelism 1 vs GOMAXPROCS, reporting
// simulation runs per wall second. The sub-benchmarks share options but
// never a harness, so every iteration pays for its runs; ns/op is the
// full-sweep wall-clock at that parallelism, and runs/s the pool
// throughput (on a multi-core host the GOMAXPROCS variant should
// approach a linear multiple of the sequential one).
//
// The store=cold/store=warm pair measures the persistent result store:
// cold pays every simulation plus the store writes; warm re-renders the
// same campaign from the store alone — zero simulations, pure decode —
// and its runs/s (design points recalled per wall second) is the
// engineering figure of merit for amortized sweeps: it bounds how fast
// any shard-merge or CI re-render can go.
func BenchmarkCampaignThroughput(b *testing.B) {
	opt := experiments.DefaultOptions()
	opt.Workloads = []string{"bc", "srad", "ycsb"}
	opt.TotalInstr = 96_000
	opt.SweepInstr = 48_000
	levels := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		levels = append(levels, n)
	}
	for _, par := range levels {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			var runs atomic.Int64
			for i := 0; i < b.N; i++ {
				o := opt
				o.Parallelism = par
				h := experiments.NewHarness(o)
				h.Verbose = func(string, *system.Result) { runs.Add(1) }
				h.All()
			}
			b.ReportMetric(float64(runs.Load())/b.Elapsed().Seconds(), "runs/s")
		})
	}

	b.Run("store=cold", func(b *testing.B) {
		b.ReportAllocs()
		var runs atomic.Int64
		for i := 0; i < b.N; i++ {
			o := opt
			o.CacheDir = b.TempDir() // fresh store every iteration
			h := experiments.NewHarness(o)
			h.Verbose = func(string, *system.Result) { runs.Add(1) }
			h.All()
		}
		b.ReportMetric(float64(runs.Load())/b.Elapsed().Seconds(), "runs/s")
	})

	b.Run("store=warm", func(b *testing.B) {
		o := opt
		o.CacheDir = b.TempDir()
		experiments.NewHarness(o).All() // populate once, untimed
		var recalls, sims atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := experiments.NewHarness(o)
			h.Verbose = func(string, *system.Result) { sims.Add(1) }
			h.Opt.Progress = func(done, total int, key string) { recalls.Add(1) }
			h.All()
		}
		if sims.Load() != 0 {
			b.Fatalf("warm campaign ran %d simulations, want 0", sims.Load())
		}
		b.ReportMetric(float64(recalls.Load())/b.Elapsed().Seconds(), "runs/s")
	})
}

// BenchmarkTraceStreamingReplay measures the v2 trace container on a
// sizeable recording: decode=cold materializes the whole file the way
// v1 replay had to; decode=streamed replays through the block reader
// with O(block) memory. Reported alongside: the v2 size as a share of
// the same records' flat wire size (an 8-byte count per thread plus
// each record's kind byte and uvarint — the v1 layout's body), the
// compression report the container exists for (WORKLOADS.md tabulates
// the per-workload ratios).
func BenchmarkTraceStreamingReplay(b *testing.B) {
	w, err := skybyte.WorkloadByName("ycsb")
	if err != nil {
		b.Fatal(err)
	}
	tr := &trace.Trace{Meta: trace.Meta{
		Workload: w.Name, Seed: 1, FootprintPages: w.FootprintPages, WriteRatio: w.WriteRatio,
	}}
	const threads, perThread = 4, 250_000
	var varBuf [binary.MaxVarintLen64]byte
	flat := 0
	for t := 0; t < threads; t++ {
		recs := trace.RecordStream(w.Stream(t, 1), perThread)
		tr.Threads = append(tr.Threads, recs)
		flat += 8
		for _, r := range recs {
			v := uint64(r.Addr)
			if r.Kind == trace.Compute {
				v = uint64(r.N)
			}
			flat += 1 + binary.PutUvarint(varBuf[:], v)
		}
	}
	v2, err := trace.EncodeTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.trc")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		b.Fatal(err)
	}
	total := float64(tr.Records())
	ratio := float64(len(v2)) / float64(flat)

	drainAll := func(stream func(thread int) trace.Stream) uint64 {
		var n uint64
		for t := 0; t < threads; t++ {
			st := stream(t)
			for {
				if _, ok := st.Next(); !ok {
					break
				}
				n++
			}
		}
		return n
	}

	b.Run("decode=cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			dec, err := trace.DecodeTrace(data)
			if err != nil {
				b.Fatal(err)
			}
			if drainAll(dec.Stream) != uint64(total) {
				b.Fatal("short replay")
			}
		}
		b.ReportMetric(total*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(100*ratio, "v2size%")
	})

	b.Run("decode=streamed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := trace.OpenFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if drainAll(r.Stream) != uint64(total) {
				b.Fatal("short replay")
			}
			r.Close()
		}
		b.ReportMetric(total*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(100*ratio, "v2size%")
	})
}
