package skybyte_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"skybyte"
	"skybyte/internal/arrival"
	"skybyte/internal/runner"
	"skybyte/internal/stats"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/trace"
	"skybyte/internal/traceimport"
	"skybyte/internal/workloads"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
	w, err := skybyte.WorkloadByName("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	res := skybyte.Run(cfg, w, 8, 4000, 1)
	if res.ExecTime <= 0 || res.Instructions < 8*4000 {
		t.Fatalf("run incomplete: %v / %d instrs", res.ExecTime, res.Instructions)
	}
	if res.Variant != string(skybyte.SkyByteFull) {
		t.Fatalf("variant = %q", res.Variant)
	}
}

func TestVariantsExposed(t *testing.T) {
	vs := skybyte.Variants()
	if len(vs) != 8 {
		t.Fatalf("variants = %d, want the Fig. 14 set of 8", len(vs))
	}
	if vs[0] != skybyte.BaseCSSD || vs[len(vs)-1] != skybyte.DRAMOnly {
		t.Fatalf("variant order unexpected: %v", vs)
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if len(skybyte.Workloads()) != 7 {
		t.Fatal("Table I should have 7 workloads")
	}
	if _, err := skybyte.WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestManualSystemDrive(t *testing.T) {
	cfg := skybyte.ScaledConfig().WithVariant(skybyte.BaseCSSD)
	sys := skybyte.NewSystem(cfg)
	w, _ := skybyte.WorkloadByName("tpcc")
	for i := 0; i < 4; i++ {
		sys.AddThread(w.Stream(i, 2), 3000)
	}
	res := sys.Run()
	if res.Breakdown.Total() == 0 {
		t.Fatal("no requests recorded")
	}
}

func TestExperimentsSmoke(t *testing.T) {
	opt := skybyte.DefaultExperimentOptions()
	opt.TotalInstr = 48_000
	opt.SweepInstr = 24_000
	opt.Workloads = []string{"ycsb"}
	h := skybyte.NewExperiments(opt)
	tab := h.Fig02()
	if tab.ID != "fig02" || len(tab.Rows) != 1 {
		t.Fatalf("fig02 shape wrong: %+v", tab)
	}
}

// TestShardedCampaignPublicAPI drives the persistence/sharding surface
// end to end the way two CI jobs and a merge machine would: shards
// split the campaign into one store, the merge renders from cache
// only, and the bytes match an unsharded run.
func TestShardedCampaignPublicAPI(t *testing.T) {
	opt := skybyte.DefaultExperimentOptions()
	opt.TotalInstr = 48_000
	opt.SweepInstr = 24_000
	opt.Workloads = []string{"ycsb"}

	fp := skybyte.CampaignFingerprint(opt)
	if fp == "" || fp != skybyte.CampaignFingerprint(opt) {
		t.Fatal("campaign fingerprint unstable")
	}

	direct := skybyte.RunAll(opt)

	opt.CacheDir = t.TempDir()
	opt.ShardCount = 2
	for i := 0; i < 2; i++ {
		opt.Shard = i
		executed, total, err := skybyte.RunShard(opt)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if executed == 0 || total == 0 {
			t.Fatalf("shard %d executed %d of %d", i, executed, total)
		}
	}
	merged, err := skybyte.RunAllFromCache(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(direct) {
		t.Fatalf("table counts differ: %d vs %d", len(merged), len(direct))
	}
	for i := range direct {
		if merged[i].String() != direct[i].String() {
			t.Errorf("table %s differs between direct and sharded runs", direct[i].ID)
		}
	}

	// A from-cache render against an empty store must fail, not simulate.
	opt.CacheDir = t.TempDir()
	if _, err := skybyte.RunAllFromCache(opt); err == nil {
		t.Fatal("render from an empty store succeeded")
	}
}

// TestBadCacheDirIsAnError: a CacheDir that cannot be created (a file
// sits at the path) surfaces as an error from the error-returning
// entry points, not a panic.
func TestBadCacheDirIsAnError(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := skybyte.DefaultExperimentOptions()
	opt.Workloads = []string{"ycsb"}
	opt.CacheDir = bad
	if _, _, err := skybyte.RunShard(opt); err == nil {
		t.Fatal("RunShard with an unusable CacheDir succeeded")
	}
	if _, err := skybyte.RunAllFromCache(opt); err == nil {
		t.Fatal("RunAllFromCache with an unusable CacheDir succeeded")
	}
}

// TestFileWorkloadCampaignEndToEnd is the PR-3 acceptance path: a
// workload defined only in a file (no Go code) runs through
// RunAll-style campaigns, its registration gives the campaign a store
// fingerprint distinct from a built-in-only process, a warm replay
// from the persistent store is byte-identical with zero simulations,
// and editing the file re-keys the store instead of serving stale
// results.
func TestFileWorkloadCampaignEndToEnd(t *testing.T) {
	def := `{
  "format": 1,
  "name": "filetest-mix",
  "footprint_pages": 4096,
  "write_ratio": 0.25,
  "regions": [
    {"name": "data", "start": 0, "size": 0.9},
    {"name": "out", "start": 0.9, "size": 0.1}
  ],
  "phases": [
    {"ops": [
      {"op": "load", "region": "data", "kernel": "zipf", "theta": 0.8},
      {"op": "compute", "min": 12, "max": 24},
      {"op": "load", "region": "data", "kernel": "sequential", "lines": 2},
      {"op": "store", "region": "out", "kernel": "uniform"}
    ]}
  ]
}`
	dir := t.TempDir()
	path := filepath.Join(dir, "w.json")
	if err := os.WriteFile(path, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}

	opt := skybyte.DefaultExperimentOptions()
	opt.TotalInstr = 24_000
	opt.SweepInstr = 12_000
	opt.Workloads = []string{"filetest-mix"}

	optNoFile := opt
	optNoFile.Workloads = []string{"ycsb"}
	fpBefore := skybyte.CampaignFingerprint(optNoFile)

	w, err := skybyte.WorkloadFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "filetest-mix" {
		t.Fatalf("loaded name %q", w.Name)
	}
	if fpV1 := skybyte.CampaignFingerprint(optNoFile); fpV1 == fpBefore {
		t.Fatal("registering a file workload did not change the campaign fingerprint")
	}

	// Direct run through the plain API.
	cfg := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
	if res := skybyte.Run(cfg, w, 8, 3000, 1); res.Instructions < 8*3000 {
		t.Fatalf("file workload run incomplete: %+v", res.Instructions)
	}

	// Cold campaign into a persistent store.
	opt.CacheDir = filepath.Join(dir, "store")
	sims := 0
	h := skybyte.NewExperiments(opt)
	h.Verbose = func(string, *skybyte.Result) { sims++ }
	cold, err := h.AllErr(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sims == 0 {
		t.Fatal("cold campaign simulated nothing")
	}
	coldSims := sims

	// Warm replay: zero simulations, identical bytes.
	sims = 0
	h2 := skybyte.NewExperiments(opt)
	h2.Verbose = func(string, *skybyte.Result) { sims++ }
	warm, err := h2.AllErr(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sims != 0 {
		t.Fatalf("warm campaign re-simulated %d design points", sims)
	}
	if len(warm) != len(cold) {
		t.Fatalf("table counts differ: %d vs %d", len(warm), len(cold))
	}
	for i := range cold {
		if warm[i].String() != cold[i].String() {
			t.Fatalf("table %s differs between cold and warm runs", cold[i].ID)
		}
	}

	// Edit the definition: the campaign re-keys and re-simulates.
	edited := strings.Replace(def, `"theta": 0.8`, `"theta": 0.7`, 1)
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := skybyte.WorkloadFromFile(path); err != nil {
		t.Fatal(err)
	}
	sims = 0
	h3 := skybyte.NewExperiments(opt)
	h3.Verbose = func(string, *skybyte.Result) { sims++ }
	if _, err := h3.AllErr(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sims != coldSims {
		t.Fatalf("edited workload file re-simulated %d of %d design points; stale store entries served", sims, coldSims)
	}
}

// TestRunMixPublicAPI drives the multi-tenant surface end to end: a
// built-in mix resolves by name, a file mix registers and runs, and a
// mixed run attributes results per tenant.
func TestRunMixPublicAPI(t *testing.T) {
	if len(skybyte.MixNames()) < 2 {
		t.Fatalf("MixNames() = %v, want the built-in pairings", skybyte.MixNames())
	}
	m, err := skybyte.MixByName("graph-vs-log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := skybyte.MixByName("nope"); err == nil {
		t.Fatal("unknown mix accepted")
	}
	cfg := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
	res, err := skybyte.RunMix(cfg, m, 16_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("tenants = %d, want 2", len(res.Tenants))
	}
	for _, tr := range res.Tenants {
		if tr.Instructions == 0 || tr.ExecTime == 0 {
			t.Fatalf("tenant %q made no progress", tr.Name)
		}
	}

	mixDef := `{
  "format": 1,
  "name": "api-file-mix",
  "tenants": [
    {"workload": "bc", "threads": 2},
    {"workload": "ycsb", "threads": 2}
  ]
}`
	path := filepath.Join(t.TempDir(), "mix.json")
	if err := os.WriteFile(path, []byte(mixDef), 0o644); err != nil {
		t.Fatal(err)
	}
	fm, err := skybyte.MixFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Name != "api-file-mix" {
		t.Fatalf("loaded mix named %q", fm.Name)
	}
	if _, err := skybyte.MixByName("api-file-mix"); err != nil {
		t.Fatal("file mix not resolvable by name after MixFromFile")
	}
}

// TestFromFileRejectsTrailingData: each example definition loads as
// shipped, and the same file with anything but whitespace after its
// JSON value is refused by the facade loader, not silently truncated.
// The unmodified loads go through the non-registering loaders so the
// examples do not join later tests' default mix and arrival sets.
func TestFromFileRejectsTrailingData(t *testing.T) {
	for _, tc := range []struct {
		path, junk string
		load       func(string) error
		loadClean  func(string) error
	}{
		{"examples/multitenant/mix.json", `{"garbage": true} trailing junk`, errOf(skybyte.MixFromFile), errOf(tenant.FromFile)},
		{"examples/openloop/spec.json", "not json at all", errOf(skybyte.ArrivalFromFile), errOf(arrival.FromFile)},
		{"examples/customworkload/workload.json", "]]]", errOf(skybyte.WorkloadFromFile), errOf(workloads.FromFile)},
	} {
		if err := tc.loadClean(tc.path); err != nil {
			t.Fatalf("%s does not load as shipped: %v", tc.path, err)
		}
		data, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		junked := filepath.Join(t.TempDir(), filepath.Base(tc.path))
		if err := os.WriteFile(junked, append(data, tc.junk...), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := tc.load(junked); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("%s + %q: err = %v, want a trailing-data error", tc.path, tc.junk, err)
		}
	}
}

// errOf adapts a loader to one that reports only its error.
func errOf[T any](load func(string) (T, error)) func(string) error {
	return func(path string) error {
		_, err := load(path)
		return err
	}
}

// TestRunnerMatchesDirectCalls: a design point executed through the
// runner and the same point run through the public Run, RunMix or
// RunArrival call encode to the same Result bytes (CacheKey aside, the
// one field only the runner sets).
func TestRunnerMatchesDirectCalls(t *testing.T) {
	const seed = 3
	base := skybyte.ScaledConfig()
	cfg := base.WithVariant(skybyte.SkyByteFull)
	ycsb, err := skybyte.WorkloadByName("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := skybyte.MixByName("graph-vs-log")
	if err != nil {
		t.Fatal(err)
	}
	arr, err := skybyte.ArrivalByName("open-burst")
	if err != nil {
		t.Fatal(err)
	}
	fleet := cfg
	fleet.Devices = 2
	arrival := func(scale float64) func() (*skybyte.Result, error) {
		return func() (*skybyte.Result, error) { return skybyte.RunArrival(cfg, arr, 48_000, seed, scale) }
	}
	for _, c := range []struct {
		name   string
		spec   runner.Spec
		direct func() (*skybyte.Result, error)
	}{
		{"solo", runner.Spec{Workload: "ycsb", Variant: skybyte.SkyByteFull, TotalInstr: 16_000, Threads: 8},
			func() (*skybyte.Result, error) { return skybyte.Run(cfg, ycsb, 8, 2_000, seed), nil }},
		{"mix", runner.Spec{Mix: "graph-vs-log", Variant: skybyte.SkyByteFull, TotalInstr: 16_000},
			func() (*skybyte.Result, error) { return skybyte.RunMix(cfg, mix, 16_000, seed) }},
		{"arrival x1", runner.Spec{Arrival: "open-burst", Variant: skybyte.SkyByteFull, TotalInstr: 48_000}, arrival(1)},
		{"arrival x4", runner.Spec{Arrival: "open-burst", ArrivalScale: 4, Variant: skybyte.SkyByteFull, TotalInstr: 48_000}, arrival(4)},
		{"fleet K=2", runner.Spec{Workload: "ycsb", Variant: skybyte.SkyByteFull, TotalInstr: 16_000, Threads: 8, Devices: 2},
			func() (*skybyte.Result, error) { return skybyte.Run(fleet, ycsb, 8, 2_000, seed), nil }},
	} {
		viaRunner, err := runner.New(base, seed, 1).Run(context.Background(), c.spec)
		if err != nil {
			t.Fatalf("%s: runner: %v", c.name, err)
		}
		direct, err := c.direct()
		if err != nil {
			t.Fatalf("%s: direct: %v", c.name, err)
		}
		stripped := *viaRunner
		stripped.CacheKey = ""
		a, err := system.EncodeResult(&stripped)
		if err != nil {
			t.Fatal(err)
		}
		b, err := system.EncodeResult(direct)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: runner and direct call encode different Results", c.name)
		}
	}
}

// TestTenantStatsSumToSystemTotals runs a mix on the fullest design
// point (context switches + write log + migration all active) and pins
// that it exercises the paths the per-tenant split divides: context
// switches and write-log activity. The sums themselves are
// TestSplitsReconcile's.
func TestTenantStatsSumToSystemTotals(t *testing.T) {
	m, err := skybyte.MixByName("graph-vs-log")
	if err != nil {
		t.Fatal(err)
	}
	res, err := skybyte.RunMix(skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull), m, 128_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != len(m.Tenants) {
		t.Fatalf("%d tenant rows, want %d", len(res.Tenants), len(m.Tenants))
	}
	if res.CtxSwitches == 0 || res.Traffic.LinesAbsorbed == 0 {
		t.Errorf("test exercised no switches/log activity (ctx=%d lines=%d)", res.CtxSwitches, res.Traffic.LinesAbsorbed)
	}
}

// TestSplitsReconcile is the one reconciliation contract for every
// split a Result carries: tenant rows against the system totals, device
// rows against the fleet totals, and SLO-class stats against
// OpenLoop.Total. A split field is matched to its total by name, so a
// counter added to a split is reconciled as soon as its total exists.
// A solo run books into one tenant part and one device and reports
// neither section.
func TestSplitsReconcile(t *testing.T) {
	full := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
	ycsb, err := skybyte.WorkloadByName("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := skybyte.MixByName("graph-vs-log")
	if err != nil {
		t.Fatal(err)
	}
	arr, err := skybyte.ArrivalByName("open-steady")
	if err != nil {
		t.Fatal(err)
	}
	srad, err := skybyte.WorkloadByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	// A small write log makes the fleet compact as well as migrate.
	fleet := full
	fleet.Devices, fleet.Placement, fleet.WriteLogBytes = 4, "hotcold", 16<<10
	for _, tc := range []struct {
		name                      string
		run                       func() (*skybyte.Result, error)
		tenants, devices, classes int
	}{
		{"solo", func() (*skybyte.Result, error) { return skybyte.Run(full, ycsb, 8, 6000, 1), nil }, 0, 0, 0},
		{"mix", func() (*skybyte.Result, error) { return skybyte.RunMix(full, mix, 96_000, 1) }, 2, 0, 0},
		{"arrival", func() (*skybyte.Result, error) { return skybyte.RunArrival(full, arr, 72_000, 1, 1) }, 2, 0, 2},
		{"fleet", func() (*skybyte.Result, error) { return skybyte.Run(fleet, srad, 8, 40_000, 1), nil }, 0, 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			classes := 0
			if res.OpenLoop != nil {
				classes = len(res.OpenLoop.Classes)
			}
			if len(res.Tenants) != tc.tenants || len(res.Devices) != tc.devices || classes != tc.classes {
				t.Fatalf("%d tenant, %d device, %d class rows; want %d, %d, %d",
					len(res.Tenants), len(res.Devices), classes, tc.tenants, tc.devices, tc.classes)
			}
			reconcile(t, res, res.Tenants)
			reconcile(t, res, res.Devices)
			if tc.devices > 0 && (res.Compaction.Count == 0 || res.FleetMigrations == 0) {
				t.Errorf("fleet ran %d compactions and %d migrations; the case needs both",
					res.Compaction.Count, res.FleetMigrations)
			}
			if ol := res.OpenLoop; ol != nil {
				var splits []stats.OpenStats
				for _, c := range ol.Classes {
					splits = append(splits, c.Stats)
				}
				reconcile(t, &ol.Total, splits)
			}
			// The tenant write-log split has no same-named total.
			if len(res.Tenants) > 0 {
				var lines uint64
				for _, tr := range res.Tenants {
					lines += tr.Log.LinesAbsorbed
				}
				if lines != res.Traffic.LinesAbsorbed {
					t.Errorf("tenant log lines sum %d != system %d", lines, res.Traffic.LinesAbsorbed)
				}
			}
		})
	}
}

// nonAdditive names the split fields whose same-named total is not
// their sum: extrema (ExecTime, FirstDone, LastDone) and derived ratios
// (MPKI, FlashUtilization).
var nonAdditive = map[string]bool{
	"ExecTime": true, "FirstDone": true, "LastDone": true,
	"MPKI": true, "FlashUtilization": true,
}

// reconcile checks every field of the splits that *total also has, by
// name: counters and nested counter sets must sum to it exactly, and
// latency histograms must merge into it bucket for bucket. Split fields
// without a total (names, placement tallies, port traffic) are skipped.
func reconcile[P any](t *testing.T, total any, splits []P) {
	t.Helper()
	if len(splits) == 0 {
		return
	}
	tv := reflect.ValueOf(total).Elem()
	st := reflect.TypeOf(splits[0])
	checked := 0
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		tf := tv.FieldByName(f.Name)
		if !tf.IsValid() || nonAdditive[f.Name] {
			continue
		}
		if tf.Type() != f.Type {
			t.Fatalf("%s.%s is a %s but its total is a %s", st.Name(), f.Name, f.Type, tf.Type())
		}
		parts := make([]reflect.Value, len(splits))
		for j := range splits {
			parts[j] = reflect.ValueOf(splits[j]).Field(i)
		}
		checkSum(t, st.Name()+"."+f.Name, tf, parts)
		checked++
	}
	if checked == 0 {
		t.Fatalf("no %s field matched a total", st.Name())
	}
}

var histType = reflect.TypeOf(stats.LatencyHist{})

func checkSum(t *testing.T, path string, total reflect.Value, parts []reflect.Value) {
	t.Helper()
	switch {
	case total.Type() == histType:
		var merged stats.LatencyHist
		for _, p := range parts {
			h := p.Interface().(stats.LatencyHist)
			merged.Merge(&h)
		}
		if want := total.Interface().(stats.LatencyHist); !reflect.DeepEqual(merged, want) {
			t.Errorf("%s: splits merge to %d samples (mean %v), total has %d (mean %v)",
				path, merged.Count(), merged.Mean(), want.Count(), want.Mean())
		}
	case total.Kind() == reflect.Struct:
		for i := 0; i < total.NumField(); i++ {
			sub := make([]reflect.Value, len(parts))
			for j, p := range parts {
				sub[j] = p.Field(i)
			}
			checkSum(t, path+"."+total.Type().Field(i).Name, total.Field(i), sub)
		}
	case total.Kind() == reflect.Array:
		for i := 0; i < total.Len(); i++ {
			sub := make([]reflect.Value, len(parts))
			for j, p := range parts {
				sub[j] = p.Index(i)
			}
			checkSum(t, fmt.Sprintf("%s[%d]", path, i), total.Index(i), sub)
		}
	case total.CanInt():
		var sum int64
		for _, p := range parts {
			sum += p.Int()
		}
		if sum != total.Int() {
			t.Errorf("%s: splits sum to %d, total is %d", path, sum, total.Int())
		}
	case total.CanUint():
		var sum uint64
		for _, p := range parts {
			sum += p.Uint()
		}
		if sum != total.Uint() {
			t.Errorf("%s: splits sum to %d, total is %d", path, sum, total.Uint())
		}
	default:
		t.Fatalf("%s: no sum rule for a %s field", path, total.Kind())
	}
}

// TestTraceRecordReplayBitForBit is the record/replay acceptance: a
// stream recorded at a simulation's exact instruction budget, replayed
// through the trace workload kind, reproduces the original run's
// Result bit for bit.
func TestTraceRecordReplayBitForBit(t *testing.T) {
	w, err := skybyte.WorkloadByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	cfg := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
	const threads, per, seed = 8, 6000, 3

	live := skybyte.Run(cfg, w, threads, per, seed)

	tr := &trace.Trace{Meta: trace.Meta{
		Workload: w.Name, Seed: seed,
		FootprintPages: w.FootprintPages, WriteRatio: w.WriteRatio,
		InstrPerThread: per,
	}}
	for i := 0; i < threads; i++ {
		tr.Threads = append(tr.Threads,
			trace.RecordStream(&trace.Limited{Src: w.Stream(i, seed), Budget: per}, math.MaxInt))
	}
	data, err := trace.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "srad.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	replayW, err := skybyte.WorkloadFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if replayW.Name != "trace:srad" {
		t.Fatalf("trace workload named %q", replayW.Name)
	}
	// The replay seed is deliberately different: a trace is literal.
	replay := skybyte.Run(cfg, replayW, threads, per, seed+99)

	la, err := system.EncodeResult(live)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := system.EncodeResult(replay)
	if err != nil {
		t.Fatal(err)
	}
	if string(la) != string(ra) {
		t.Fatalf("replayed Result differs from the live run:\nlive:   %.200s\nreplay: %.200s", la, ra)
	}
}

// TestTraceV1ReplaysLikeItsV2Reencode: v1 is a read-only layout, and
// re-recording a v1 file writes v2. The checked-in v1 fixture and its
// v2 re-encoding, replayed at the same budget, must produce the same
// Result bytes — the re-record changes the container, never the run.
func TestTraceV1ReplaysLikeItsV2Reencode(t *testing.T) {
	const fixture = "internal/trace/testdata/golden-v1.trc"
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := trace.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	v2Path := filepath.Join(t.TempDir(), "golden-v2.trc")
	if err := os.WriteFile(v2Path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
	var results []string
	for _, path := range []string{fixture, v2Path} {
		w, err := skybyte.WorkloadFromFile(path)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := system.EncodeResult(skybyte.Run(cfg, w, len(tr.Threads), tr.Meta.InstrPerThread, 1))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, string(enc))
	}
	if results[0] != results[1] {
		t.Fatalf("the v1 fixture and its v2 re-encoding replay differently:\nv1: %.200s\nv2: %.200s", results[0], results[1])
	}
}

// TestImportedTraceEndToEnd is the importer acceptance at the public
// API: a synthetic ChampSim trace imports to a registered workload,
// replays to byte-identical Results across goroutines (a campaign's
// parallelism must not be able to tell imported streams apart from
// generated ones), and the in-memory import fingerprints identically
// to the same conversion recorded to a .trc and loaded back — so a
// persistent store warms across the two entry paths.
func TestImportedTraceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "fixture.champsim")
	if err := traceimport.WriteFixture("champsim", src); err != nil {
		t.Fatal(err)
	}
	w, err := skybyte.ImportTrace("champsim:" + src)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "trace:champsim:fixture.champsim" {
		t.Fatalf("imported workload named %q", w.Name)
	}
	got, err := skybyte.WorkloadByName(w.Name)
	if err != nil || got.Trace == nil {
		t.Fatalf("imported workload does not resolve by name: %v", err)
	}

	cfg := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
	const threads, per = 4, 3000
	results := make([]*skybyte.Result, 3)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = skybyte.Run(cfg, w, threads, per, 1)
		}(i)
	}
	wg.Wait()
	first, err := system.EncodeResult(results[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		enc, err := system.EncodeResult(results[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(first) {
			t.Fatalf("concurrent replays of the imported trace diverged (run %d)", i)
		}
	}

	// Record the conversion and load the file: same records, same
	// source identity — the spec key (and so any cached result) is
	// shared between the -import and -workload-file entry paths.
	enc, err := traceimport.ImportEncoded("champsim", src)
	if err != nil {
		t.Fatal(err)
	}
	trc := filepath.Join(dir, "fixture.trc")
	if err := os.WriteFile(trc, enc.Data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := skybyte.WorkloadFromFile(trc)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.SourceID() != w.SourceID() {
		t.Fatalf("source identity differs between import (%s) and file load (%s)", w.SourceID(), fromFile.SourceID())
	}
	fileRes := skybyte.Run(cfg, fromFile, threads, per, 7) // trace replay ignores the seed
	fileEnc, err := system.EncodeResult(fileRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(fileEnc) != string(first) {
		t.Fatal("replay through the recorded .trc differs from the in-memory import")
	}
	if skybyte.ImportFormats()[0] == "" || len(skybyte.ImportFormats()) != 3 {
		t.Fatalf("ImportFormats = %v", skybyte.ImportFormats())
	}
}
