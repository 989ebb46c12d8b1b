// Command benchgate is the CI perf-regression gate. It runs the two
// gated throughput benchmarks (BenchmarkSimulatorThroughput and
// BenchmarkCampaignThroughput/store=cold) -count times via `go test`,
// aggregates each (min ns/op — shared-host noise only adds time — and
// median allocs/op), and compares against the pinned snapshot (by
// default the highest-numbered BENCH_<n>.json in the working directory:
// the snapshots form an appended trajectory and the newest one gates):
//
//   - allocs/op gates strictly: allocation counts are deterministic
//     and hardware-independent, so anything beyond a small growth
//     allowance fails — this is the portable half of the gate (the
//     TestColdRunAllocsBudget test pins the same property in-process).
//   - ns/op gates through calibration: the snapshot records how long a
//     fixed pointer-chase kernel took on the recording machine, the
//     gate re-times that kernel locally, and the baseline ns/op is
//     scaled by the ratio before the tolerance band applies. The band
//     (default 1.15x) is sized so benchmark noise passes and an
//     injected >=20% slowdown fails on comparable hardware.
//
// Run from the module root (the subprocess `go test` resolves the
// package in the working directory). After an intentional perf change,
// record a new snapshot beside the old ones with:
//
//	go run ./cmd/benchgate -update -baseline BENCH_<n>.json
//
// (n above every existing snapshot) and commit it with the change.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchPatterns selects exactly the gated benchmarks, one `go test`
// invocation each: -bench matches per slash-separated level, and a
// parent benchmark given a sub-level pattern is only enumerated, not
// timed — so a combined pattern would silently drop the sub-bench-free
// SimulatorThroughput.
var benchPatterns = []string{
	"^BenchmarkSimulatorThroughput$",
	"^BenchmarkCampaignThroughput$/^store=cold$",
}

// Baseline is the checked-in snapshot benchgate compares against.
type Baseline struct {
	// Go records the toolchain that took the snapshot (informational).
	Go string `json:"go"`
	// CalibrationNs is how long the calibration kernel took on the
	// recording machine; the local/recorded ratio rescales every ns/op
	// bound before the tolerance band applies.
	CalibrationNs float64 `json:"calibration_ns"`
	// Tolerance is the ns/op band: measured > baseline*scale*Tolerance
	// fails. AllocTolerance is the (much tighter) allocs/op band.
	Tolerance      float64 `json:"tolerance"`
	AllocTolerance float64 `json:"alloc_tolerance"`
	// Count and Benchtime record how the snapshot was taken, so a
	// refresh measures the same way by default.
	Count     int    `json:"count"`
	Benchtime string `json:"benchtime"`

	Benchmarks map[string]Bench `json:"benchmarks"`
}

// Bench is one benchmark's pinned measurements.
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", latestBaseline("."), "pinned benchmark snapshot to gate against (or write with -update); default: the highest-numbered BENCH_<n>.json")
		update       = flag.Bool("update", false, "re-measure and rewrite -baseline instead of gating")
		count        = flag.Int("count", 0, "benchmark repetitions to aggregate over (0 = the snapshot's count, 5 for a fresh snapshot)")
		benchtime    = flag.String("benchtime", "", "per-repetition -benchtime (empty = the snapshot's, 3x for a fresh snapshot)")
		tolerance    = flag.Float64("tolerance", 0, "override the snapshot's ns/op tolerance band (0 = use the snapshot's)")
	)
	flag.Parse()
	if *baselinePath == "" {
		fatalf("no BENCH_<n>.json snapshot in the working directory; name one with -baseline")
	}

	prior, priorErr := readBaseline(*baselinePath)
	if !*update && priorErr != nil {
		fatalf("cannot gate: %v (generate the snapshot with -update)", priorErr)
	}

	n, bt := *count, *benchtime
	if n == 0 {
		if prior != nil && prior.Count > 0 {
			n = prior.Count
		} else {
			n = 5
		}
	}
	if bt == "" {
		if prior != nil && prior.Benchtime != "" {
			bt = prior.Benchtime
		} else {
			bt = "3x"
		}
	}

	fmt.Printf("benchgate: running %s, -count=%d -benchtime=%s\n", strings.Join(benchPatterns, " + "), n, bt)
	measured, err := runBenchmarks(n, bt)
	if err != nil {
		fatalf("%v", err)
	}
	cal := calibrate()
	fmt.Printf("benchgate: calibration kernel %.1fms locally\n", cal/1e6)

	if *update {
		b := &Baseline{
			Go:             runtime.Version(),
			CalibrationNs:  cal,
			Tolerance:      1.15,
			AllocTolerance: 1.10,
			Count:          n,
			Benchtime:      bt,
			Benchmarks:     measured,
		}
		if prior != nil {
			b.Tolerance = prior.Tolerance
			b.AllocTolerance = prior.AllocTolerance
		}
		if err := writeBaseline(*baselinePath, b); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("benchgate: wrote %s (%d benchmarks, calibration %.1fms)\n", *baselinePath, len(measured), cal/1e6)
		return
	}

	tol := prior.Tolerance
	if *tolerance > 0 {
		tol = *tolerance
	}
	scale := cal / prior.CalibrationNs
	fmt.Printf("benchgate: machine scale %.3f vs snapshot (%s), ns/op band %.2fx, allocs/op band %.2fx\n\n",
		scale, prior.Go, tol, prior.AllocTolerance)

	names := make([]string, 0, len(prior.Benchmarks))
	for name := range prior.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		base := prior.Benchmarks[name]
		got, ok := measured[name]
		if !ok {
			failed = true
			fmt.Printf("FAIL  %s: pinned in %s but not measured (renamed or deleted?)\n", name, *baselinePath)
			continue
		}
		scaledNs := base.NsPerOp * scale
		nsRatio := got.NsPerOp / scaledNs
		allocRatio := got.AllocsPerOp / base.AllocsPerOp
		verdict := "ok  "
		if nsRatio > tol || allocRatio > prior.AllocTolerance {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("%s  %s\n", verdict, name)
		fmt.Printf("      time:   %s measured vs %s scaled baseline (%s pinned x %.3f) -> %+.1f%% (limit %+.0f%%)\n",
			ms(got.NsPerOp), ms(scaledNs), ms(base.NsPerOp), scale, 100*(nsRatio-1), 100*(tol-1))
		fmt.Printf("      allocs: %.0f/op measured vs %.0f/op pinned -> %+.1f%% (limit %+.0f%%)\n",
			got.AllocsPerOp, base.AllocsPerOp, 100*(allocRatio-1), 100*(prior.AllocTolerance-1))
	}
	if failed {
		fmt.Printf("\nbenchgate: FAIL against %s — if the regression is intentional, record a new snapshot with `go run ./cmd/benchgate -update -baseline BENCH_<n>.json` and commit it\n", *baselinePath)
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: PASS")
}

// runBenchmarks executes the gated benchmarks as `go test`
// subprocesses and returns the min ns/op and median allocs/op per
// benchmark (GOMAXPROCS suffix stripped).
func runBenchmarks(count int, benchtime string) (map[string]Bench, error) {
	var out bytes.Buffer
	for _, pattern := range benchPatterns {
		cmd := exec.Command("go", "test", "-run=^$",
			"-bench="+pattern, "-benchtime="+benchtime,
			fmt.Sprintf("-count=%d", count), ".")
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("benchgate: go test -bench=%s: %w\n%s", pattern, err, out.String())
		}
	}
	ns := map[string][]float64{}
	allocs := map[string][]float64{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				ns[name] = append(ns[name], v)
			case "allocs/op":
				allocs[name] = append(allocs[name], v)
			}
		}
	}
	got := map[string]Bench{}
	for name, samples := range ns {
		got[name] = Bench{NsPerOp: minOf(samples), AllocsPerOp: median(allocs[name])}
	}
	if len(got) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark lines in go test output:\n%s", out.String())
	}
	return got, nil
}

// minOf aggregates ns/op samples: noise on a shared host only ever
// adds time, so the minimum over repetitions estimates the machine's
// true cost far more stably than the median (allocs/op, which is
// deterministic up to map-growth timing, still uses the median).
func minOf(s []float64) float64 {
	best := math.MaxFloat64
	for _, v := range s {
		if v < best {
			best = v
		}
	}
	return best
}

func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c[len(c)/2]
}

// calSink defeats dead-code elimination of the calibration kernel.
var calSink uint64

// calibrate times a fixed single-threaded kernel — a dependent
// pointer-chase over a 256 KiB ring interleaved with xorshift
// arithmetic — and returns the best of five runs in nanoseconds. The
// ratio of this number across two machines rescales the pinned ns/op
// bounds, which is what lets one snapshot gate on heterogeneous
// hardware. The working set deliberately stays cache-resident: a
// DRAM-sized chase measures the moment's memory-bus contention more
// than the machine, and on shared CI hosts that ratio swings 2x
// between invocations; a cache-resident kernel tracks the stable part
// (clock speed, IPC, CPU steal) and leaves the rest to the tolerance
// band.
func calibrate() float64 {
	const n = 1 << 15 // 256 KiB of uint64: L2-resident on anything CI uses
	buf := make([]uint64, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	best := math.MaxFloat64
	for trial := 0; trial < 5; trial++ {
		start := time.Now()
		var idx, acc uint64
		for i := 0; i < 512*n; i++ {
			idx = buf[idx&(n-1)] + uint64(i)
			acc ^= idx
			acc ^= acc << 13
			acc ^= acc >> 7
		}
		calSink += acc
		if el := float64(time.Since(start).Nanoseconds()); el < best {
			best = el
		}
	}
	return best
}

// latestBaseline returns the BENCH_<n>.json in dir with the largest n
// (compared as numbers, so BENCH_15 follows BENCH_7), or "" if there is
// none.
func latestBaseline(dir string) string {
	paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	best, bestN := "", -1
	for _, p := range paths {
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		if n, err := strconv.Atoi(num); err == nil && n > bestN {
			best, bestN = p, n
		}
	}
	return best
}

func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	if b.CalibrationNs <= 0 || b.Tolerance <= 1 || b.AllocTolerance <= 1 || len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchgate: %s: incomplete snapshot (need calibration_ns, tolerance bands > 1, and benchmarks)", path)
	}
	return &b, nil
}

func writeBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ms(ns float64) string {
	return fmt.Sprintf("%.1fms", ns/1e6)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
