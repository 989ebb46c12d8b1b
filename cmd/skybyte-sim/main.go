// skybyte-sim runs a single simulation — the equivalent of the artifact's
// ./macsim invocation: one workload, mix or arrival spec (one selector,
// shared with skybyte-trace) on one design variant, with the paper's
// configuration knobs exposed as flags.
//
// Example:
//
//	skybyte-sim -workload ycsb -variant SkyByte-Full -threads 24 -instr 16000
//	skybyte-sim -workload srad -variant Base-CSSD -cs-threshold 10us
//	skybyte-sim -scale 1/16 -workload bc -variants Base-CSSD,SkyByte-Full
//	skybyte-sim -workload-file my-workload.json -variant SkyByte-Full
//	skybyte-sim -workload-file recorded.trc -variants Base-CSSD,SkyByte-Full
//	skybyte-sim -mix graph-vs-log -variant SkyByte-Full       # multi-tenant run
//	skybyte-sim -mix-file mix.json -variant Base-CSSD         # file-defined mix
//	skybyte-sim -arrival open-steady -arrival-scale 2         # open-loop run
//	skybyte-sim -arrival-file traffic.json -variant SkyByte-C # file-defined arrival spec
//
// With -variants (plural), several design points run concurrently over
// the shared worker pool and print as one comparison:
//
//	skybyte-sim -workload tpcc -variants Base-CSSD,SkyByte-W,SkyByte-Full
//
// With -cache-dir, completed runs persist in the content-addressed
// result store and later invocations (same workload, variant, knobs,
// and seed) recall them instead of re-simulating. A comparison can be
// split across machines sharing a store and merged without simulating:
//
//	skybyte-sim -workload tpcc -variants Base-CSSD,SkyByte-Full -cache-dir .c -shard 0/2
//	skybyte-sim -workload tpcc -variants Base-CSSD,SkyByte-Full -cache-dir .c -shard 1/2
//	skybyte-sim -workload tpcc -variants Base-CSSD,SkyByte-Full -cache-dir .c -from-cache
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"skybyte"
	"skybyte/cmd/internal/selector"
	"skybyte/internal/fleet"
	"skybyte/internal/osched"
	"skybyte/internal/runner"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/store"
	"skybyte/internal/system"
	"skybyte/internal/telemetry"
)

func main() {
	sel := selector.Declare(flag.CommandLine, true)
	var (
		variant   = flag.String("variant", "SkyByte-Full", "design variant (Base-CSSD, SkyByte-{C,P,W,CP,WP,Full,CT,WCT}, AstriFlash-CXL, DRAM-Only)")
		variants  = flag.String("variants", "", "comma-separated variants to compare; they run in parallel and print one table")
		parallel  = flag.Int("parallel", 0, "with -variants: simulations in flight at once (0 = GOMAXPROCS)")
		threads   = flag.Int("threads", 0, "software threads (0 = paper default: 24 with context switch, 8 otherwise)")
		instr     = flag.Uint64("instr", 16000, "instructions per thread")
		seed      = flag.Uint64("seed", 1, "workload seed")
		devices   = flag.Int("devices", 0, "wire a fleet of this many CXL-SSDs behind the placement layer (0 or 1 = the single-device machine; max 16); a fleet of 2+ prints per-device fleet-dev rows")
		placement = flag.String("placement", "", "with -devices >= 2: fleet placement policy (striped, capacity, hotcold; default striped)")
		threshold = flag.Duration("cs-threshold", 0, "context-switch trigger threshold (artifact knob cs_threshold; unset keeps the machine's)")
		policy    = flag.String("policy", "", "scheduling policy: RR, RANDOM, FAIRNESS (artifact knob t_policy; unset keeps the machine's)")
		cacheMB   = flag.Int("ssd-dram-mb", 0, "override total SSD DRAM size in MiB (artifact knob ssd_cache_size_byte)")
		logKB     = flag.Int("write-log-kb", 0, "override write log size in KiB")
		scale     = flag.String("scale", "1/64", "machine scale 1/n of Table II (n a power of two from 1 to 64): capacities, LLC and generated workload footprints all scale with n; 1/1 is Table II (recorded traces run only at 1/64)")
		telDur    = flag.Duration("telemetry", 0, "sample in-simulator probes (write-log occupancy, queue depths, per-class p99, ...) every this much simulated time; the time-series ride in the result (0 = off, zero cost)")
		timeline  = flag.String("timeline", "", "with -telemetry: also record the request-lifecycle timeline and write it to this file as Chrome trace-event JSON (load in Perfetto or chrome://tracing)")
		cacheDir  = flag.String("cache-dir", "", "persist results in the content-addressed store rooted here; identical runs are recalled, not re-simulated")
		shardSpec = flag.String("shard", "", "with -variants and -cache-dir: execute only slice i of n (format i/n) of the comparison")
		fromCache = flag.Bool("from-cache", false, "with -variants and -cache-dir: render from the store only; a missing run is an error")
	)
	flag.Parse()
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Validate every name before anything simulates: a typo must list
	// the valid values and change nothing. The selector registers a file
	// or import once and resolves it to what runs.
	spec, err := sel.Resolve()
	if err != nil {
		fail(err)
	}
	if spec.Mix != "" || spec.Arrival != "" {
		kind := "-mix"
		if spec.Arrival != "" {
			kind = "-arrival"
		}
		if *variants != "" {
			fail(fmt.Errorf("%s runs one design point at a time; it cannot be combined with -variants", kind))
		}
		if *threads != 0 {
			fail(fmt.Errorf("%s declares its own thread counts; -threads does not apply", kind))
		}
	}
	if given["policy"] {
		if _, err := osched.ParsePolicy(*policy); err != nil {
			fail(err)
		}
	}
	var variantList []system.Variant
	if *variants != "" {
		for _, name := range strings.Split(*variants, ",") {
			v, err := system.ParseVariant(strings.TrimSpace(name))
			if err != nil {
				fail(err)
			}
			variantList = append(variantList, v)
		}
	} else if _, err := system.ParseVariant(*variant); err != nil {
		fail(err)
	}
	// Fleet flags reject unknown values upfront, listing the valid set
	// (the same convention as -variant), before anything simulates. A
	// placement needs a fleet (-devices >= 2) to place across.
	if *placement != "" && *devices < 2 {
		fail(fmt.Errorf("-placement %q needs a fleet to place across; use -devices 2..%d", *placement, fleet.MaxDevices))
	}
	if *devices != 0 {
		if err := fleet.Validate(*devices, *placement); err != nil {
			fail(err)
		}
	}
	if *timeline != "" && *telDur <= 0 {
		fail(fmt.Errorf("-timeline records spans on the telemetry sampler; it requires -telemetry <cadence>"))
	}
	if *timeline != "" && *variants != "" {
		fail(fmt.Errorf("-timeline writes one run's timeline; it cannot be combined with -variants"))
	}
	if (*shardSpec != "" || *fromCache) && *cacheDir == "" {
		fail(fmt.Errorf("-shard and -from-cache require -cache-dir"))
	}
	if (*shardSpec != "" || *fromCache) && *variants == "" {
		fail(fmt.Errorf("-shard and -from-cache apply to the -variants comparison"))
	}
	shardI, shardN := 0, 1
	if *shardSpec != "" {
		var err error
		if shardI, shardN, err = runner.ParseShard(*shardSpec); err != nil {
			fail(fmt.Errorf("-shard: %w", err))
		}
	}

	n, err := system.ParseScale(*scale)
	if err != nil {
		fail(err)
	}
	base := skybyte.ConfigAt(n)
	// The runner keys every run by its workload source and the machine
	// it builds (DESIGN.md §2.1): an edited file re-keys exactly the runs
	// that use it, and default knobs share skybyte-bench's store entries.
	// knobs applies the CLI overrides on top of a variant config; it is
	// the spec's config mutation.
	knobs := func(c *skybyte.Config) {
		if given["cs-threshold"] {
			c.HintThreshold = sim.Time(threshold.Nanoseconds()) * sim.Nanosecond
		}
		if given["policy"] {
			c.Policy = osched.PolicyKind(*policy)
		}
		if *cacheMB > 0 {
			c.SSDDRAMBytes = *cacheMB << 20
		}
		if *logKB > 0 {
			c.WriteLogBytes = *logKB << 10
		}
		if *telDur > 0 {
			c.TelemetryCadence = sim.Time(telDur.Nanoseconds()) * sim.Nanosecond
			c.TelemetryTimeline = *timeline != ""
		}
	}
	newRunner := func(parallelism int) *runner.Runner {
		r := runner.New(base, *seed, parallelism)
		if *cacheDir != "" {
			disk, err := store.Open(*cacheDir, store.Fingerprint(base, *seed))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			r.Store = disk
			r.CacheOnly = *fromCache
		}
		return r
	}

	// Every run goes through the runner as one runner.Spec; without
	// -cache-dir the runner simply has no store.
	spec.Variant, spec.Devices, spec.Placement, spec.Mutate = skybyte.Variant(*variant), *devices, *placement, knobs

	// Every design point's machine, and the solo workload sized for it,
	// must be valid before anything simulates.
	if len(variantList) == 0 {
		variantList = []system.Variant{spec.Variant}
	}
	for _, v := range variantList {
		cfg := machine(base, spec, v)
		if err := cfg.Validate(); err != nil {
			fail(err)
		}
		if spec.Workload != "" {
			w, _ := skybyte.WorkloadByName(spec.Workload)
			if _, err := w.ForDevice(cfg.Geometry.Bytes()); err != nil {
				fail(err)
			}
		}
	}

	if *variants != "" {
		compareVariants(newRunner(*parallel), base, spec, variantList, *threads, *instr, shardI, shardN, *shardSpec != "")
		return
	}

	cfg := machine(base, spec, spec.Variant)
	// The selector resolved the spec's names and members, so the lookups
	// below cannot fail.
	var head string
	switch {
	case spec.Arrival != "":
		arr, _ := skybyte.ArrivalByName(spec.Arrival)
		n, _ := arr.TotalThreads()
		spec.TotalInstr = *instr * uint64(n)
		head = fmt.Sprintf("arrival         %s x%g (%d cohorts, %d threads on %d cores)\nvariant         %s",
			arr.Name, spec.ArrivalScale, len(arr.Cohorts), n, cfg.Cores, cfg.Name)
	case spec.Mix != "":
		mix, _ := skybyte.MixByName(spec.Mix)
		n := mix.TotalThreads()
		spec.Threads, spec.TotalInstr = n, *instr*uint64(n)
		head = fmt.Sprintf("mix             %s (%d tenants, %d threads on %d cores)\nvariant         %s",
			mix.Name, len(mix.Tenants), n, cfg.Cores, cfg.Name)
	default:
		w, _ := skybyte.WorkloadByName(spec.Workload)
		w, _ = w.ForDevice(cfg.Geometry.Bytes())
		spec = sized(base, spec, *threads, *instr)
		head = fmt.Sprintf("workload        %s (%s footprint, paper MPKI %.1f)\nvariant         %s, %d threads on %d cores",
			w.Name, stats.FormatGB(w.FootprintBytes()), w.PaperMPKI, cfg.Name, spec.Threads, cfg.Cores)
	}

	start := time.Now()
	res, err := newRunner(1).Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report(res, head, time.Since(start), *timeline)
}

// report prints one run under its header (the design point and its
// variant). A Result carrying per-tenant
// accounting (a mix or an arrival spec) reports its totals, then its
// per-SLO-class rows if it is open-loop, else its per-tenant rows; any
// other Result gets the full single-workload breakdown. The fleet and
// telemetry sections follow whenever the Result carries them.
func report(res *skybyte.Result, head string, wall time.Duration, timelinePath string) {
	wall = wall.Round(time.Millisecond)
	fmt.Println(head)
	if len(res.Tenants) > 0 {
		fmt.Printf("exec time       %v   (%.1fM instr total; wall %v)\n",
			res.ExecTime, float64(res.Instructions)/1e6, wall)
	} else {
		fmt.Printf("exec time       %v   (%.1fM instr, %.0f MIPS simulated; wall %v)\n",
			res.ExecTime, float64(res.Instructions)/1e6, res.IPS()/1e6, wall)
	}
	fmt.Printf("boundedness     compute %.1f%%  memory %.1f%%  ctx-switch %.1f%%\n",
		100*res.Bound.ComputeFrac(), 100*res.Bound.MemFrac(), 100*res.Bound.CtxFrac())
	switch {
	case res.OpenLoop != nil:
		emitClasses(res)
	case len(res.Tenants) > 0:
		emitTenants(res)
	default:
		emitDetail(res)
	}
	emitFleet(res)
	emitTelemetry(res, timelinePath)
}

// emitDetail prints the single-workload breakdown: AMAT components,
// read latency, request classes, flash traffic, and the mechanisms
// that fired.
func emitDetail(res *skybyte.Result) {
	fmt.Printf("AMAT            %v (host %v | protocol %v | index %v | ssdDRAM %v | flash %v)\n",
		res.AMAT.Mean(),
		res.AMAT.MeanOf(stats.AMATHostDRAM), res.AMAT.MeanOf(stats.AMATCXLProtocol),
		res.AMAT.MeanOf(stats.AMATIndexing), res.AMAT.MeanOf(stats.AMATSSDDRAM), res.AMAT.MeanOf(stats.AMATFlash))
	fmt.Printf("read latency    p50 %v  p99 %v  max %v\n",
		res.ReadLat.Percentile(50), res.ReadLat.Percentile(99), res.ReadLat.Max())
	fmt.Printf("requests        H-R/W %.1f%%  S-R-H %.1f%%  S-R-M %.1f%%  S-W %.1f%%\n",
		100*res.Breakdown.Frac(stats.HostRW), 100*res.Breakdown.Frac(stats.SSDReadHit),
		100*res.Breakdown.Frac(stats.SSDReadMiss), 100*res.Breakdown.Frac(stats.SSDWrite))
	fmt.Printf("flash           reads %d  programs %d (user %d, compact %d, GC %d, demote %d)  erases %d\n",
		res.Traffic.TotalReads(), res.Traffic.TotalPrograms(), res.Traffic.HostPrograms,
		res.Traffic.CompactWrites, res.Traffic.GCPrograms, res.Traffic.DemoteWrites, res.Traffic.Erases)
	fmt.Printf("MPKI            %.1f   LLC misses %d\n", res.MPKI, res.LLCMisses)
	if res.HintsSent > 0 {
		fmt.Printf("SkyByte-Delay   hints %d  switches %d (hint-triggered %d)\n", res.HintsSent, res.CtxSwitches, res.HintSwitches)
	}
	if res.Compaction.Count > 0 {
		fmt.Printf("compaction      %d runs, mean %v, %d pages; peak log index %s\n",
			res.Compaction.Count, res.Compaction.Mean(), res.Compaction.Pages, stats.FormatGB(uint64(res.LogIndexPeak)))
	}
	if res.Migration.Promotions > 0 {
		fmt.Printf("migration       %d promotions, %d demotions\n", res.Migration.Promotions, res.Migration.Demotions)
	}
	fmt.Printf("SSD bandwidth   %.2f GB/s over CXL; flash die utilization %.1f%%\n",
		res.SSDBandwidthBps/1e9, 100*res.FlashUtilization)
}

// emitTenants prints the per-tenant accounting of a mixed run: who got
// what share of the machine, who paid for context switches, and who
// filled the write log.
func emitTenants(res *skybyte.Result) {
	fmt.Printf("\n%-10s %-12s %7s %10s %12s %8s %8s %10s %8s %10s %8s\n",
		"tenant", "workload", "threads", "instr", "exec", "mem%", "ctx", "p99 read", "MPKI", "log lines", "stalls")
	ips := make([]float64, 0, len(res.Tenants))
	for _, tr := range res.Tenants {
		fmt.Printf("%-10s %-12s %7d %10d %12v %7.1f%% %8d %10v %8.1f %10d %8d\n",
			tr.Name, tr.Workload, tr.Threads, tr.Instructions, tr.ExecTime,
			100*tr.Bound.MemFrac(), tr.CtxSwitches, tr.ReadLat.Percentile(99), tr.MPKI,
			tr.Log.LinesAbsorbed, tr.Log.StalledWrites)
		ips = append(ips, tr.IPS())
	}
	fmt.Printf("\nfairness        Jain index %.3f over per-tenant progress rates (max/min %.2f)\n",
		stats.JainIndex(ips), stats.MaxMinRatio(ips))
}

// emitClasses prints the per-SLO-class accounting of an open-loop run:
// offered vs delivered request rate, the sojourn-latency percentiles,
// and the queueing share of the sojourn.
func emitClasses(res *skybyte.Result) {
	fmt.Printf("\n%-10s %12s %12s %10s %10s %10s %10s %10s %12s\n",
		"class", "offered rps", "goodput rps", "p50", "p95", "p99", "p99.9", "max", "mean qdelay")
	for _, cl := range res.OpenLoop.Classes {
		fmt.Printf("%-10s %12.0f %12.0f %10v %10v %10v %10v %10v %12v\n",
			cl.Name, cl.OfferedRPS, cl.Stats.GoodputRPS(),
			cl.Stats.Latency.Percentile(50), cl.Stats.Latency.Percentile(95),
			cl.Stats.Latency.Percentile(99), cl.Stats.Latency.Percentile(99.9),
			cl.Stats.Latency.Max(), cl.Stats.QueueDelay.Mean())
	}
	tot := &res.OpenLoop.Total
	fmt.Printf("\ntotal           %d admitted, %d completed (%.0f rps goodput)\n",
		tot.Admitted, tot.Completed, tot.GoodputRPS())
}

// emitFleet prints the per-device split of a fleet run: one fleet-dev
// row per device, then a fleet-total row carrying the run's summed
// totals in the same space-separated columns (device, flash reads,
// flash programs, owned pages, inbound accesses) so scripted consumers
// can assert the splits reconcile against the totals. Non-fleet runs
// print nothing.
func emitFleet(res *skybyte.Result) {
	if len(res.Devices) == 0 {
		return
	}
	fmt.Printf("fleet           %d devices, %s placement, %d migrations\n",
		len(res.Devices), res.Placement, res.FleetMigrations)
	var pages, inbound uint64
	for _, d := range res.Devices {
		fmt.Printf("fleet-dev %d %d %d %d %d util %.1f%%\n",
			d.Device, d.Traffic.TotalReads(), d.Traffic.TotalPrograms(),
			d.Pages, d.Inbound, 100*d.FlashUtilization)
		pages += d.Pages
		inbound += d.Inbound
	}
	fmt.Printf("fleet-total all %d %d %d %d\n",
		res.Traffic.TotalReads(), res.Traffic.TotalPrograms(), pages, inbound)
}

// emitTelemetry prints the telemetry summary lines of a run that
// carried a sampled section, and writes the request-lifecycle timeline
// when a path was given. Output lines are prefixed "telemetry" so
// scripted consumers keyed on the existing row prefixes never see them.
func emitTelemetry(res *skybyte.Result, timelinePath string) {
	tel := res.Telemetry
	if tel == nil {
		return
	}
	fmt.Printf("telemetry       %d samples every %v across %d series\n",
		tel.Samples, tel.Cadence, len(tel.Series))
	if occ := tel.SeriesByName("writelog.occupancy"); occ != nil && len(occ.Points) > 0 {
		fmt.Printf("telemetry       write-log occupancy mean %.1f%%  peak %.1f%%\n",
			100*occ.Mean(0, res.ExecTime+1), 100*occ.Max(0, res.ExecTime+1))
	}
	if timelinePath == "" {
		return
	}
	f, err := os.Create(timelinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := telemetry.WriteChromeTrace(f, tel); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("telemetry       timeline: %d spans -> %s (load in Perfetto or chrome://tracing)\n",
		len(tel.Spans), timelinePath)
	if tel.DroppedSpans > 0 {
		fmt.Printf("telemetry       warning: %d spans beyond the recorder capacity were dropped\n", tel.DroppedSpans)
	}
}

// machine is the config design point v of spec runs on: base at variant
// v with the CLI knobs (spec.Mutate) applied.
func machine(base skybyte.Config, spec runner.Spec, v system.Variant) skybyte.Config {
	cfg := base.WithVariant(v)
	spec.Mutate(&cfg)
	return cfg
}

// sized sets a workload spec's thread count (threads, or 0 for the
// paper default of the machine the spec builds) and its budget of
// instrPerThread instructions per thread.
func sized(base skybyte.Config, spec runner.Spec, threads int, instrPerThread uint64) runner.Spec {
	if threads == 0 {
		threads = runner.ThreadsFor(machine(base, spec, spec.Variant))
	}
	spec.Threads, spec.TotalInstr = threads, instrPerThread*uint64(threads)
	return spec
}

// compareVariants runs one workload across several design points on the
// shared worker pool and prints them side by side (execution time
// normalized to the first variant listed). Every thread receives the
// same per-thread instruction budget, so variants with different paper
// thread defaults still execute comparable program sections per thread.
// With sharding, only the i-th of n slices executes (populating the
// store) and no table prints; -from-cache later renders the full
// comparison without simulating. template carries the workload and the
// settings every design point shares.
func compareVariants(r *runner.Runner, base skybyte.Config, template runner.Spec, vs []system.Variant, threads int, instrPerThread uint64, shardI, shardN int, sharded bool) {
	specs := make([]runner.Spec, len(vs))
	for i, v := range vs {
		template.Variant = v
		specs[i] = sized(base, template, threads, instrPerThread)
	}
	run := specs
	if sharded {
		run = runner.ShardSpecs(specs, shardI, shardN)
	}
	var sims atomic.Int64
	r.OnEvent = func(ev runner.Event) {
		if !ev.Cached {
			sims.Add(1)
		}
	}
	start := time.Now()
	results, err := r.RunAll(context.Background(), run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(start)

	if sharded {
		fmt.Printf("shard %d/%d: %d of %d %s design points in the store (%d simulated, %d recalled; wall %v)\n",
			shardI, shardN, len(run), len(specs), template.Workload, sims.Load(), int64(len(run))-sims.Load(), wall.Round(time.Millisecond))
		return
	}
	fmt.Printf("workload %s, %d instr/thread, %d workers (wall %v)\n\n",
		template.Workload, instrPerThread, r.Parallelism(), wall.Round(time.Millisecond))
	fmt.Printf("%-16s %8s %14s %8s %12s %10s %8s\n",
		"variant", "threads", "exec", "norm", "AMAT", "p99 read", "MPKI")
	ref := float64(results[0].ExecTime)
	for i, res := range results {
		fmt.Printf("%-16s %8d %14v %8.3f %12v %10v %8.1f\n",
			string(specs[i].Variant), specs[i].Threads, res.ExecTime,
			float64(res.ExecTime)/ref, res.AMAT.Mean(), res.ReadLat.Percentile(99), res.MPKI)
	}
}
