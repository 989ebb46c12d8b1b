// skybyte-bench regenerates the paper's evaluation — every table and
// figure — the counterpart of the artifact's artifact_run.sh +
// artifact_draw_figs.sh pipeline.
//
// Examples:
//
//	skybyte-bench                      # everything, all cores, default budget
//	skybyte-bench -figure fig14        # just the headline comparison
//	skybyte-bench -parallel 1          # sequential (same bytes, slower)
//	skybyte-bench -workloads bc,ycsb -instr 200000
//	skybyte-bench -figure figext       # the extension scenarios (WORKLOADS.md)
//	skybyte-bench -figure figmix       # multi-tenant fairness/interference study
//	skybyte-bench -figure figmix -mix-file mix.json -mix my-mix
//	skybyte-bench -figure figopen      # open-loop traffic study (arrival processes)
//	skybyte-bench -figure figopen -arrival-file traffic.json -arrival my-traffic
//	skybyte-bench -figure figfleet     # cluster-scale fleet K-sweep (DESIGN.md §9)
//	skybyte-bench -figure figfleet -devices 1,4 -placement striped,hotcold
//	skybyte-bench -workload-file my.json          # file workload joins the campaign
//	skybyte-bench -workload-file my.json -workloads my-name -figure fig14
//	skybyte-bench -config              # print the 1/64 and 1/1 (Table II) machines
//
// With -cache-dir, executed design points persist in a
// content-addressed result store: a repeated invocation recalls them
// instead of re-simulating (zero simulations, identical bytes). The
// store also makes campaigns shardable across processes or machines:
//
//	skybyte-bench -cache-dir .cache -shard 0/2   # machine A
//	skybyte-bench -cache-dir .cache -shard 1/2   # machine B
//	skybyte-bench -cache-dir .cache -from-cache  # render, zero simulations
//
// -fingerprint prints the campaign's store identity (for external
// cache keys, e.g. CI's actions/cache).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"skybyte"
	"skybyte/cmd/internal/profile"
	"skybyte/internal/arrival"
	"skybyte/internal/experiments"
	"skybyte/internal/fleet"
	"skybyte/internal/runner"
	"skybyte/internal/stats"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

func main() {
	var wfiles []string
	flag.Func("workload-file", "load and register a workload file (JSON definition or recorded trace; repeatable); it joins the campaign unless -workloads selects a subset", func(path string) error {
		wfiles = append(wfiles, path)
		return nil
	})
	var imports []string
	flag.Func("import", "convert and register an external trace, <format>:<path> (champsim, damon, cachegrind; repeatable); it joins the campaign like a -workload-file", func(spec string) error {
		imports = append(imports, spec)
		return nil
	})
	var mixFiles []string
	flag.Func("mix-file", "load and register a multi-tenant mix file (JSON; repeatable); it joins the figmix mix set unless -mix selects a subset", func(path string) error {
		mixFiles = append(mixFiles, path)
		return nil
	})
	var arrFiles []string
	flag.Func("arrival-file", "load and register an open-loop arrival spec file (JSON; repeatable); it joins the figopen arrival set unless -arrival selects a subset", func(path string) error {
		arrFiles = append(arrFiles, path)
		return nil
	})
	var (
		mixCSV      = flag.String("mix", "", "comma-separated mix subset for the figmix fairness table (default: all built-in and -mix-file mixes)")
		devCSV      = flag.String("devices", "", "comma-separated device counts for the figfleet K-sweep (default: 1,2,4,8; each 1..16)")
		placeCSV    = flag.String("placement", "", "comma-separated placement-policy subset for the figfleet sweep (default: striped,capacity,hotcold)")
		arrCSV      = flag.String("arrival", "", "comma-separated arrival-spec subset for the figopen open-loop table (default: all built-in and -arrival-file specs)")
		tenantRows  = flag.Bool("tenant-rows", false, "extend figures 14/16/17 with per-tenant rows: each -mix runs co-located and every tenant contributes a mix/tenant row")
		telRows     = flag.Bool("telemetry", false, "time-resolved figopen: sample in-simulator probes during every open-loop run and report write-log occupancy and per-class windowed p99 per intensity window")
		figure      = flag.String("figure", "all", "experiment to run: all, "+strings.Join(experiments.IDs(), ", "))
		workloadCSV = flag.String("workloads", "", "comma-separated workload subset (default: all of Table I, plus any -workload-file)")
		instr       = flag.Uint64("instr", 0, "total instructions per run (default 384000)")
		parallel    = flag.Int("parallel", 0, "simulations in flight at once (0 = GOMAXPROCS, 1 = sequential; tables are identical either way)")
		progress    = flag.Bool("progress", false, "report batch progress as runs complete")
		verbose     = flag.Bool("v", false, "log each simulation as it completes")
		showCfg     = flag.Bool("config", false, "print the 1/64 machine and the 1/1 (Table II) machine and exit")
		cacheDir    = flag.String("cache-dir", "", "persist results in a content-addressed store rooted here; cached design points are recalled, not re-simulated")
		shard       = flag.String("shard", "", "execute only slice i of n (format i/n, 0-based) of the campaign into -cache-dir; render later with -from-cache")
		fromCache   = flag.Bool("from-cache", false, "render exclusively from -cache-dir: a missing design point is an error, never a re-simulation")
		fingerprint = flag.Bool("fingerprint", false, "print the campaign's store fingerprint (config+seed identity) and exit")
	)
	prof := profile.Declare(flag.CommandLine)
	flag.Parse()
	defer prof.Start()()

	if *showCfg {
		printConfigs()
		return
	}

	// Register workload and mix files before anything resolves names or
	// computes spec keys: the runner's source-folded keys snapshot each
	// definition, which is what keeps a store warm across re-runs of the
	// same file and re-colds exactly the affected entries after an edit.
	workloadName := func(w workloads.Spec) string { return w.Name }
	seenWorkload := map[string]string{}
	// Traces from the same source all load as "trace:<source>".
	fileNames := registerAll("workload files", wfiles, workloads.RegisterFile, workloadName, seenWorkload,
		`rename one (a definition's "name" field) or record traces from distinct sources`)
	fileNames = append(fileNames, registerAll("workload inputs", imports, skybyte.ImportTrace, workloadName, seenWorkload,
		"imports from the same source file collide")...)
	registerAll("mix files", mixFiles, tenant.RegisterFile, func(m tenant.Mix) string { return m.Name }, map[string]string{},
		`rename one (the "name" field)`)
	registerAll("arrival files", arrFiles, arrival.RegisterFile, func(a arrival.Spec) string { return a.Name }, map[string]string{},
		`rename one (the "name" field)`)

	opt := experiments.DefaultOptions()
	if *instr > 0 {
		opt.TotalInstr = *instr
		opt.SweepInstr = *instr / 2
	}
	if *workloadCSV != "" {
		opt.Workloads = strings.Split(*workloadCSV, ",")
	} else {
		// File workloads join the default campaign: every figure runs
		// them next to the Table I seven.
		opt.Workloads = append(opt.Workloads, fileNames...)
	}
	if *mixCSV != "" {
		opt.Mixes = strings.Split(*mixCSV, ",")
	}
	if *arrCSV != "" {
		opt.Arrivals = strings.Split(*arrCSV, ",")
	}
	opt.TenantRows = *tenantRows
	opt.Telemetry = *telRows
	// The figfleet axes reject unknown values upfront listing the valid
	// set, like every other name flag: a typo must not leave a partially
	// executed campaign behind.
	if *devCSV != "" {
		opt.FleetDevices = nil
		for _, field := range strings.Split(*devCSV, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || k < 1 || k > fleet.MaxDevices {
				fmt.Fprintf(os.Stderr, "-devices: invalid device count %q (valid: 1..%d, comma-separated)\n", field, fleet.MaxDevices)
				os.Exit(2)
			}
			opt.FleetDevices = append(opt.FleetDevices, k)
		}
	}
	if *placeCSV != "" {
		opt.FleetPlacements = nil
		for _, field := range strings.Split(*placeCSV, ",") {
			p, err := fleet.ParsePolicy(strings.TrimSpace(field))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			opt.FleetPlacements = append(opt.FleetPlacements, string(p))
		}
	}
	// Validate every workload, mix, and figure name before any
	// simulation runs: a typo must not leave a partially executed
	// campaign behind.
	for _, name := range opt.Workloads {
		if _, err := workloads.ByName(name); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	for _, name := range opt.Mixes {
		if _, err := tenant.ByName(name); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// Arrivals defaults to the full registry inside the harness; resolve
	// the effective set here either way — an arrival spec naming an
	// unknown cohort workload or mix must fail now, listing the valid
	// set, before any simulation runs.
	arrSet := opt.Arrivals
	if len(arrSet) == 0 {
		arrSet = arrival.Names()
	}
	for _, name := range arrSet {
		a, err := arrival.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := a.Resolve(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *figure != "all" && !validFigure(*figure) {
		fmt.Fprintf(os.Stderr, "unknown figure %q; one of: all %s\n", *figure, strings.Join(experiments.IDs(), " "))
		os.Exit(2)
	}
	opt.Parallelism = *parallel

	if *fingerprint {
		fmt.Println(skybyte.CampaignFingerprint(opt))
		return
	}

	opt.CacheDir = *cacheDir
	opt.FromCache = *fromCache
	if opt.FromCache && opt.CacheDir == "" {
		fmt.Fprintln(os.Stderr, "-from-cache requires -cache-dir")
		os.Exit(2)
	}
	if *shard != "" {
		if opt.CacheDir == "" {
			fmt.Fprintln(os.Stderr, "-shard requires -cache-dir (an unpersisted shard is wasted work)")
			os.Exit(2)
		}
		if opt.FromCache {
			fmt.Fprintln(os.Stderr, "-shard executes, -from-cache renders; use one at a time")
			os.Exit(2)
		}
		if *figure != "all" {
			fmt.Fprintln(os.Stderr, "-shard slices the full campaign; it cannot be combined with -figure")
			os.Exit(2)
		}
		var err error
		if opt.Shard, opt.ShardCount, err = runner.ParseShard(*shard); err != nil {
			fmt.Fprintf(os.Stderr, "-shard: %v\n", err)
			os.Exit(2)
		}
	}
	if opt.CacheDir != "" {
		if err := os.MkdirAll(opt.CacheDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "cannot create -cache-dir: %v\n", err)
			os.Exit(1)
		}
	}

	if *progress {
		opt.Progress = func(done, total int, key string) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s\n", done, total, key)
		}
	}
	h := experiments.NewHarness(opt)
	if *verbose {
		h.Verbose = func(key string, r *system.Result) {
			fmt.Fprintf(os.Stderr, "  ran %-60s exec=%v\n", key, r.ExecTime)
		}
	}

	start := time.Now()
	switch {
	case *shard != "":
		// Verbose fires once per actual simulation (store recalls are
		// silent), so the count distinguishes real work from a warm
		// no-op re-run of the shard.
		var sims atomic.Int64
		userVerbose := h.Verbose
		h.Verbose = func(key string, r *system.Result) {
			sims.Add(1)
			if userVerbose != nil {
				userVerbose(key, r)
			}
		}
		processed, total, err := h.RunShard(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("shard %d/%d: %d of %d design points into %s (%d simulated, %d recalled)\n",
			opt.Shard, opt.ShardCount, processed, total, opt.CacheDir, sims.Load(), int64(processed)-sims.Load())
	case *figure == "all":
		tables, err := h.AllErr(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
	default:
		tab, err := h.Render(context.Background(), *figure)
		if err != nil {
			// The id was validated upfront, so this is a runtime failure
			// (e.g. a store miss under -from-cache), not a usage error.
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(tab.String())
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "completed in %v (%d workers)\n", time.Since(start).Round(time.Millisecond), workers)
}

// registerAll registers every input with register and returns the
// names they define, exiting non-zero on the first error. Two inputs
// defining one name would silently replace each other, so that is
// refused rather than running half the inputs: seen maps each name to
// the input that defined it (shared where two flags share a
// namespace), and hint tells the user how to resolve the clash.
func registerAll[T any](kind string, inputs []string, register func(string) (T, error), name func(T) string, seen map[string]string, hint string) []string {
	var names []string
	for _, in := range inputs {
		v, err := register(in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		n := name(v)
		if prev, ok := seen[n]; ok {
			fmt.Fprintf(os.Stderr, "%s %s and %s both define %q; %s\n", kind, prev, in, n, hint)
			os.Exit(2)
		}
		seen[n] = in
		names = append(names, n)
	}
	return names
}

func validFigure(id string) bool {
	for _, known := range experiments.IDs() {
		if id == known {
			return true
		}
	}
	return false
}

func printConfigs() {
	for _, c := range []struct {
		name string
		n    int
	}{{"1/64 scale (skybyte.ScaledConfig, used by benches)", 64}, {"1/1 scale (Table II capacities; FTL 0.75/0.15/0.18, migration threshold 8 vs 32)", 1}} {
		cfg := skybyte.ConfigAt(c.n)
		fmt.Printf("%s:\n", c.name)
		fmt.Printf("  CPU        %d cores, %d-entry ROB, %d MSHRs; LLC %s/%dw\n",
			cfg.Cores, cfg.CPU.ROB, cfg.CPU.MLP,
			stats.FormatGB(uint64(cfg.LLCBytes)), cfg.LLCWays)
		fmt.Printf("  flash      %s (%d ch x %d chips x %d dies x %d blk x %d pg), tR=%v tProg=%v tBERS=%v\n",
			stats.FormatGB(cfg.Geometry.Bytes()), cfg.Geometry.Channels, cfg.Geometry.ChipsPerChan,
			cfg.Geometry.DiesPerChip, cfg.Geometry.BlocksPerPlane, cfg.Geometry.PagesPerBlock,
			cfg.Timing.Read, cfg.Timing.Program, cfg.Timing.Erase)
		fmt.Printf("  SSD DRAM   %s total (write log %s); host promotion budget %s\n",
			stats.FormatGB(uint64(cfg.SSDDRAMBytes)), stats.FormatGB(uint64(cfg.WriteLogBytes)),
			stats.FormatGB(uint64(cfg.PromotedMaxBytes)))
		fmt.Printf("  OS         policy %s, switch cost %v, trigger threshold %v\n\n",
			cfg.Policy, cfg.CtxSwitchCost, cfg.HintThreshold)
	}
}
