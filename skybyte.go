// Package skybyte is a full-system reproduction of "SkyByte: Architecting
// an Efficient Memory-Semantic CXL-based SSD with OS and Hardware
// Co-design" (HPCA 2025).
//
// It simulates, end to end, a multi-core host running software threads over
// a CXL.mem link to a flash SSD, and implements the paper's three
// mechanisms — the coordinated context switch on device-predicted long
// delays, the cacheline-granular write log with a page-granular data cache
// in the SSD DRAM, and adaptive hot-page promotion to host DRAM — alongside
// the baselines the paper compares against (Base-CSSD, TPP-style migration,
// an AstriFlash-style host page cache, and an ideal DRAM-only machine).
//
// Quick start:
//
//	cfg := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
//	w, _ := skybyte.WorkloadByName("ycsb")
//	res := skybyte.Run(cfg, w, 24, 16_000, 1)
//	fmt.Println(res.ExecTime, res.AMAT.Mean())
//
// The experiments API regenerates every table and figure of the paper's
// evaluation; see NewExperiments and EXPERIMENTS.md. RunAll executes the
// whole campaign as one de-duplicated batch across a worker pool sized
// by ExperimentOptions.Parallelism — the tables are byte-identical at
// any parallelism:
//
//	opt := skybyte.DefaultExperimentOptions()
//	opt.Parallelism = runtime.GOMAXPROCS(0)
//	for _, tab := range skybyte.RunAll(opt) {
//		fmt.Println(tab.String())
//	}
package skybyte

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"skybyte/internal/arrival"
	"skybyte/internal/experiments"
	"skybyte/internal/fleet"
	"skybyte/internal/stats"
	"skybyte/internal/store"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/trace"
	"skybyte/internal/traceimport"
	"skybyte/internal/workloads"
)

// Config is the full-system configuration (Table II plus the artifact's
// knobs). Obtain one from ScaledConfig or PaperConfig, then apply
// WithVariant.
type Config = system.Config

// Variant names a design point from the paper's evaluation.
type Variant = system.Variant

// The design points of Figs. 14 and 23.
const (
	DRAMOnly      = system.DRAMOnly
	BaseCSSD      = system.BaseCSSD
	SkyByteC      = system.SkyByteC
	SkyByteP      = system.SkyByteP
	SkyByteW      = system.SkyByteW
	SkyByteCP     = system.SkyByteCP
	SkyByteWP     = system.SkyByteWP
	SkyByteFull   = system.SkyByteFull
	SkyByteCT     = system.SkyByteCT
	SkyByteWCT    = system.SkyByteWCT
	AstriFlashCXL = system.AstriFlashCXL
)

// Variants lists the Fig. 14 comparison set in the paper's order.
func Variants() []Variant { return append([]Variant(nil), system.AllVariants...) }

// Result carries the measurements of one run (execution time, boundedness,
// AMAT components, request breakdown, flash traffic, migrations, ...).
type Result = system.Result

// System is a fully wired simulated machine for callers that want to drive
// runs manually (custom streams, incremental stepping).
type System = system.System

// DeviceResult is one device's share of a fleet run's accounting; it
// rides in Result.Devices when Config.Devices >= 2 and its summable
// counters add up exactly to the fleet totals (DESIGN.md §9).
type DeviceResult = system.DeviceResult

// MaxFleetDevices is the largest supported Config.Devices.
const MaxFleetDevices = fleet.MaxDevices

// FleetPolicyNames lists the valid Config.Placement policies (the
// -placement flag's accept set): striped, capacity, hotcold.
func FleetPolicyNames() []string { return fleet.PolicyNames() }

// ValidateFleet checks a device-count/placement pair before a run the
// way the CLIs do: an unknown value errors listing the valid set.
func ValidateFleet(devices int, placement string) error { return fleet.Validate(devices, placement) }

// Workload describes one Table I benchmark and generates its instruction
// streams.
type Workload = workloads.Spec

// Stream is a lazily generated instruction trace; custom workloads
// implement it and pass it to (*System).AddThread.
type Stream = trace.Stream

// Record is one instruction-trace record.
type Record = trace.Record

// ScaledConfig returns the evaluation machine at 1/64 of Table II's
// capacities (identical ratios; see DESIGN.md §1).
func ScaledConfig() Config { return system.ScaledConfig() }

// PaperConfig returns Table II's capacities (128 GB flash, 512 MB SSD
// DRAM) with ScaledConfig's FTL thresholds (0.75/0.15/0.18) and
// promotion threshold (8, paper 32); see system.PaperConfig.
func PaperConfig() Config { return system.PaperConfig() }

// Workloads returns the seven Table I benchmarks.
func Workloads() []Workload { return workloads.Table1() }

// ExtraWorkloads returns the extension scenarios beyond Table I
// (scan-heavy, log-append, graph500), each composed from the
// declarative workload primitives — see WORKLOADS.md.
func ExtraWorkloads() []Workload { return workloads.Extras() }

// WorkloadByName resolves any known workload: the Table I seven (bc,
// bfs-dense, dlrm, radix, srad, tpcc, ycsb), the extension scenarios,
// and anything registered via WorkloadFromFile. Unknown names error
// with the full valid list.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// WorkloadNames lists every resolvable workload name: Table I in paper
// order, then the extension scenarios, then file-registered workloads.
func WorkloadNames() []string { return workloads.Names() }

// WorkloadFromFile loads a workload from a file — a declarative JSON
// definition or a recorded binary trace (both documented in
// WORKLOADS.md) — and registers it, so it resolves by name everywhere
// a built-in does: WorkloadByName, ExperimentOptions.Workloads, and
// the CLIs' -workload flags. Register before building harnesses: the
// campaign fingerprint snapshots the workload registry, which is how a
// persistent result store distinguishes runs made with different
// definitions of the same name.
func WorkloadFromFile(path string) (Workload, error) { return workloads.RegisterFile(path) }

// ImportTrace converts an externally produced trace — spec is
// "<format>:<path>", formats listed by ImportFormats — and registers
// it as a replayable workload named "trace:<format>:<source>", so a
// published recording joins campaigns exactly like one of our own.
// The conversion is deterministic and the registered spec's source
// identity folds the converted file's digest (which covers the source
// file's sha256 via the provenance meta), so persistent result stores
// re-cold exactly the design points replaying this import when the
// source or the converter changes. For large traces, prefer recording
// the conversion to a .trc once (skybyte-trace -import ... -record)
// and loading that file: the block-compressed container then replays
// with bounded memory instead of being held in RAM.
func ImportTrace(spec string) (Workload, error) {
	format, path, err := traceimport.ParseSpec(spec)
	if err != nil {
		return Workload{}, err
	}
	return traceimport.RegisterWorkload(format, path)
}

// ImportFormats lists the external trace formats ImportTrace converts
// (champsim, damon, cachegrind — see WORKLOADS.md for each format's
// shape and caveats).
func ImportFormats() []string { return traceimport.Formats() }

// NewSystem wires a machine from cfg.
func NewSystem(cfg Config) *System { return system.New(cfg) }

// Run executes one workload on one configuration: threads streams of
// instrPerThread instructions each, all seeded deterministically.
func Run(cfg Config, w Workload, threads int, instrPerThread uint64, seed uint64) *Result {
	sys := system.New(cfg)
	for i := 0; i < threads; i++ {
		sys.AddThread(w.Stream(i, seed), instrPerThread)
	}
	return sys.Run()
}

// Mix assigns different workloads to named thread groups — the
// multi-tenant run specification (WORKLOADS.md documents the JSON
// schema). Obtain one from MixByName, MixFromFile, or a literal.
type Mix = tenant.Mix

// MixTenant is one thread group of a Mix.
type MixTenant = tenant.TenantDef

// TenantResult is one tenant group's share of a mixed run's Result
// (Result.Tenants): per-group execution time, boundedness, request
// breakdown, AMAT, context-switch and write-log accounting.
type TenantResult = system.TenantResult

// JainIndex returns Jain's fairness index over xs — (Σx)²/(n·Σx²),
// 1 when every tenant fares equally, 1/n when one tenant receives
// everything (zero shares count toward n). Apply it to per-tenant
// slowdowns or normalized throughputs of a mixed run.
func JainIndex(xs []float64) float64 { return stats.JainIndex(xs) }

// MaxMinRatio returns max/min over the positive values of xs — the
// worst-to-best disparity between co-located tenants (1 = even).
func MaxMinRatio(xs []float64) float64 { return stats.MaxMinRatio(xs) }

// MixByName resolves any known mix: the built-in interference
// pairings (graph-vs-log, scan-vs-point) and anything registered via
// MixFromFile. Unknown names error with the full valid list.
func MixByName(name string) (Mix, error) { return tenant.ByName(name) }

// MixNames lists every resolvable mix name, built-ins first.
func MixNames() []string { return tenant.Names() }

// MixFromFile loads a multi-tenant mix from a versioned JSON file and
// registers it, so it resolves by name everywhere a built-in mix does:
// MixByName, ExperimentOptions.Mixes (the figmix fairness table), and
// the CLIs' -mix flags. Register before building harnesses so plans
// resolve it.
func MixFromFile(path string) (Mix, error) { return tenant.RegisterFile(path) }

// RunMix executes one multi-tenant simulation: every tenant group of m
// runs its own workload on its declared thread range, co-located on
// one machine, with totalInstr total instructions split across threads
// per the mix's intensities. The Result's Tenants slice attributes the
// measurements per group; Result.Tenants sums to the whole-system
// totals exactly.
func RunMix(cfg Config, m Mix, totalInstr uint64, seed uint64) (*Result, error) {
	sys := system.New(cfg)
	if err := m.Apply(sys, totalInstr, seed); err != nil {
		return nil, err
	}
	return sys.Run(), nil
}

// Arrival is an open-loop traffic specification: named client cohorts,
// each pacing its threads with a sampled arrival process (Poisson,
// Gamma, Weibull, or deterministic, optionally under a time-varying
// intensity schedule) and reporting into an SLO class (WORKLOADS.md
// documents the JSON schema). Obtain one from ArrivalByName,
// ArrivalFromFile, or a literal.
type Arrival = arrival.Spec

// ArrivalCohort is one client cohort of an Arrival spec.
type ArrivalCohort = arrival.Cohort

// ArrivalProcess is a cohort's interarrival distribution.
type ArrivalProcess = arrival.Process

// ArrivalWindow is one piecewise intensity window of a cohort's
// time-varying schedule.
type ArrivalWindow = arrival.Window

// OpenLoopResult is the per-SLO-class accounting of an open-loop run
// (Result.OpenLoop): sojourn-latency and queue-delay percentiles,
// admitted/completed counts, and goodput per class plus a grand total.
type OpenLoopResult = system.OpenLoopResult

// SLOClassResult is one SLO class's share of an OpenLoopResult.
type SLOClassResult = system.SLOClassResult

// ArrivalByName resolves any known arrival spec: the built-ins
// (open-steady, open-burst) and anything registered via
// ArrivalFromFile. Unknown names error with the full valid list.
func ArrivalByName(name string) (Arrival, error) { return arrival.ByName(name) }

// ArrivalNames lists every resolvable arrival-spec name, built-ins
// first.
func ArrivalNames() []string { return arrival.Names() }

// ArrivalFromFile loads an arrival spec from a versioned JSON file and
// registers it, so it resolves by name everywhere a built-in does:
// ArrivalByName, ExperimentOptions.Arrivals (the figopen open-loop
// table), and the CLIs' -arrival flags. Register before building
// harnesses so plans resolve it.
func ArrivalFromFile(path string) (Arrival, error) { return arrival.RegisterFile(path) }

// RunArrival executes one open-loop simulation: every cohort of a runs
// its threads paced by sampled arrival instants, with every cohort rate
// multiplied by rateScale (0 means 1) and totalInstr total instructions
// split evenly across threads. The Result's OpenLoop section attributes
// sojourn latency, queue delay, and goodput per SLO class; the per-class
// splits sum to OpenLoop.Total exactly.
func RunArrival(cfg Config, a Arrival, totalInstr uint64, seed uint64, rateScale float64) (*Result, error) {
	sys := system.New(cfg)
	if err := a.Apply(sys, totalInstr, seed, rateScale); err != nil {
		return nil, err
	}
	return sys.Run(), nil
}

// ExperimentOptions scope an experiment campaign: Parallelism
// (simulations in flight at once; 0 = GOMAXPROCS), an optional
// Progress callback, and the persistence/sharding knobs — CacheDir
// roots a content-addressed result store so completed design points
// survive across invocations and machines, Shard/ShardCount split the
// de-duplicated campaign into deterministic slices, and FromCache
// renders tables exclusively from the store.
type ExperimentOptions = experiments.Options

// Experiments regenerates the paper's tables and figures.
type Experiments = experiments.Harness

// ExperimentTable is one reproduced figure or table.
type ExperimentTable = experiments.Table

// DefaultExperimentOptions sizes a campaign to run a full sweep in minutes.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// NewExperiments builds an experiment harness; its Fig* and Table* methods
// each regenerate one element of the paper's evaluation.
func NewExperiments(opt ExperimentOptions) *Experiments { return experiments.NewHarness(opt) }

// RunAll is the campaign entry point: it plans every figure and table of
// the paper's evaluation, de-duplicates the design points, executes them
// once across a worker pool of opt.Parallelism simulations (0 =
// GOMAXPROCS), and returns the tables in paper order. Output is
// byte-identical at any parallelism; only wall-clock changes. With
// opt.CacheDir set, executed results persist in a content-addressed
// store and later invocations recall them instead of re-simulating —
// a warm campaign performs zero simulations and renders the same bytes.
func RunAll(opt ExperimentOptions) []ExperimentTable { return NewExperiments(opt).All() }

// RunShard executes one deterministic slice of the full campaign —
// the opt.Shard-th (0-based) of opt.ShardCount — persisting results
// into opt.CacheDir (required) and rendering nothing. Every process
// planning the same options computes identical slice boundaries, so a
// sweep splits across machines or CI jobs with no coordination beyond
// (shard, count) and a shared or later-merged store directory. Returns
// the executed and total design-point counts.
func RunShard(opt ExperimentOptions) (executed, total int, err error) {
	return NewExperiments(opt).RunShard(context.Background())
}

// RunAllFromCache renders the full campaign exclusively from the
// result store at opt.CacheDir — the merge path after sharding: a
// design point missing from the store is an error, never a silent
// re-simulation, so the rendered tables are exactly the shards' work.
func RunAllFromCache(opt ExperimentOptions) ([]ExperimentTable, error) {
	if opt.CacheDir == "" {
		return nil, errors.New("skybyte: RunAllFromCache requires ExperimentOptions.CacheDir")
	}
	opt.FromCache = true
	return NewExperiments(opt).AllErr(context.Background())
}

// CampaignFingerprint returns the external cache identity of a
// campaign: the result version (layout and model) plus a digest of
// the resolved base configuration, the workload seed, and the full
// workload, mix, and arrival-spec registries. It is deliberately *coarser* than the store's own
// invalidation — the store re-keys per design point via source-folded
// spec keys (DESIGN.md §2.1), so an edited workload only re-simulates
// the entries that use it — but an external cache (e.g. CI's
// actions/cache) snapshots whole directories, and its key should
// rotate whenever any input changed so the refreshed store is
// re-uploaded. Pair it with a prefix restore key to keep the
// still-warm entries of the previous snapshot.
func CampaignFingerprint(opt ExperimentOptions) string {
	opt.CacheDir, opt.FromCache = "", false // no store side effects
	h := NewExperiments(opt)
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%s|%s",
		store.Fingerprint(h.Opt.BaseConfig, h.Opt.Seed),
		workloads.RegistryFingerprint(),
		tenant.RegistryFingerprint(),
		arrival.RegistryFingerprint())))
	return fmt.Sprintf("v%d-%s", system.ResultVersion, hex.EncodeToString(sum[:]))
}
