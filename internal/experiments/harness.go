// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): each Fig*/Table* method runs the required simulator
// configurations and returns the same rows/series the paper plots.
// EXPERIMENTS.md records paper-vs-measured for each.
//
// Absolute numbers differ from the paper (synthetic workloads on a scaled
// device — DESIGN.md §1); the comparisons preserve the paper's shape: who
// wins, by roughly what factor, and where the crossovers fall.
//
// The layer is split into plan and execute halves. Every figure first
// declares its design points against a Plan (which de-duplicates them
// into runner.Specs) and returns a build closure; Plan.MustExecute then
// pushes the whole batch through a shared internal/runner worker pool.
// Because results come back in declaration order and each simulation is
// deterministic, the rendered tables are byte-identical at any
// parallelism — see TestCampaignParallelDeterminism.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"skybyte/internal/arrival"
	"skybyte/internal/fleet"
	"skybyte/internal/mem"
	"skybyte/internal/runner"
	"skybyte/internal/store"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

// Options scope an experiment campaign.
type Options struct {
	// BaseConfig is the machine; defaults to system.ScaledConfig().
	BaseConfig system.Config
	// TotalInstr is the total work per run, divided evenly among threads
	// so every design point executes the same program section (§VI-A).
	TotalInstr uint64
	// SweepInstr is the (smaller) work budget for many-cell sweeps.
	SweepInstr uint64
	// Workloads restricts the benchmark set (default: all of Table I).
	Workloads []string
	// Mixes restricts the multi-tenant mix set the optional figmix
	// fairness table compares (default: every resolvable mix — the
	// built-in pairings plus anything registered via tenant.Register/
	// RegisterFile). Names resolve through tenant.ByName.
	Mixes []string
	// Arrivals restricts the arrival-spec set the optional figopen
	// open-loop table sweeps (default: every registered arrival spec —
	// the built-ins plus anything registered via arrival.Register/
	// RegisterFile). Names resolve through arrival.ByName.
	Arrivals []string
	// TenantRows extends Figs. 14, 16, and 17 with per-tenant rows: each
	// mix in Mixes is additionally simulated under the figure's variant
	// set and every tenant contributes a "mix/tenant" row built from its
	// own Result.Tenants slice (completion time, request breakdown,
	// AMAT). Off by default so the paper's tables stay the paper's; the
	// mixed runs are shared with figmix where the design points coincide.
	TenantRows bool
	// FleetDevices is the device-count axis (K) of the optional figfleet
	// cluster-scaling table (default: 1, 2, 4, 8; each within
	// 1..fleet.MaxDevices). K = 1 is the single-device baseline the
	// other rows normalize against.
	FleetDevices []int
	// FleetPlacements restricts the placement-policy axis of figfleet
	// (default: every fleet policy). Names resolve via fleet.ParsePolicy;
	// hotcold needs K >= 2, so it only contributes multi-device rows.
	FleetPlacements []string
	// Telemetry switches the optional figopen table into its
	// time-resolved row mode: every open-loop run samples the
	// in-simulator probes (internal/telemetry) on a fixed cadence, and
	// the table reports write-log occupancy and the per-class windowed
	// p99 resolved per intensity window of the arrival spec, instead of
	// end-of-run percentiles. Off by default: sampling costs simulation
	// work and re-keys the figopen design points (the telemetry config
	// is part of spec identity).
	Telemetry bool
	Seed      uint64
	// Parallelism bounds the simulations in flight at once
	// (0 = GOMAXPROCS, 1 = fully sequential). Tables are identical at
	// any setting; only wall-clock changes.
	Parallelism int
	// Progress, when set, observes campaign progress: done runs
	// (memoised recalls included, so done reaches total) out of the
	// planned batch, plus the just-finished run's key. It is called
	// serially from worker goroutines.
	Progress func(done, total int, key string)
	// CacheDir, when set, backs the campaign with the persistent
	// content-addressed result store (internal/store) rooted there,
	// keyed by the fingerprint of BaseConfig+Seed: executed results
	// persist across invocations, and cached design points are decoded
	// instead of re-simulated. Shards sharing a campaign share one
	// CacheDir.
	CacheDir string
	// FromCache renders exclusively from CacheDir: a design point
	// missing from the store is an error instead of a simulation. This
	// is the merge path — render tables on a machine that ran none of
	// the shards. Requires CacheDir.
	FromCache bool
	// Shard and ShardCount split a campaign: RunShard executes only the
	// Shard-th (0-based) of ShardCount deterministic slices of the
	// de-duplicated design points, persisting into CacheDir. A full
	// render needs every shard's results merged into one store.
	Shard, ShardCount int
}

// DefaultOptions returns a campaign sized to run a full sweep in minutes.
func DefaultOptions() Options {
	return Options{
		BaseConfig: system.ScaledConfig(),
		TotalInstr: 384_000,
		SweepInstr: 192_000,
		Workloads:  workloads.Table1Names(),
		Seed:       7,
	}
}

// Harness plans the paper's figures and executes them on a shared
// runner. Runs memoise across figures, so ones sharing design points
// (e.g. Figs. 14, 16, 17, 18) pay for them once — and a campaign
// planned as a whole (All) executes every unique design point exactly
// once across the worker pool.
type Harness struct {
	Opt Options
	run *runner.Runner
	// storeErr defers a CacheDir/FromCache misconfiguration (unwritable
	// directory, FromCache without CacheDir) to execution time, where
	// the error-returning paths can report it.
	storeErr error
	// Verbose, when set, logs each run as it completes (executions only;
	// memoised recalls are silent). Calls are serialized but may come
	// from worker goroutines.
	Verbose func(key string, r *system.Result)
}

// NewHarness builds a harness. Zero-valued Options fields take their
// DefaultOptions values field by field, so setting e.g. only Workloads
// and Parallelism scopes the campaign without losing the default
// budgets. An Options.CacheDir that cannot be created is reported when
// the campaign first executes: as an error from the error-returning
// paths (AllErr, RunShard, Render), as a panic from the Must ones.
func NewHarness(opt Options) *Harness {
	def := DefaultOptions()
	if opt.BaseConfig.Cores == 0 {
		opt.BaseConfig = def.BaseConfig
	}
	if opt.TotalInstr == 0 {
		opt.TotalInstr = def.TotalInstr
	}
	if opt.SweepInstr == 0 {
		opt.SweepInstr = def.SweepInstr
	}
	if len(opt.Workloads) == 0 {
		opt.Workloads = def.Workloads
	}
	if opt.Seed == 0 {
		opt.Seed = def.Seed
	}
	if len(opt.Mixes) == 0 {
		opt.Mixes = tenant.Names()
	}
	if len(opt.Arrivals) == 0 {
		opt.Arrivals = arrival.Names()
	}
	if len(opt.FleetDevices) == 0 {
		opt.FleetDevices = []int{1, 2, 4, 8}
	}
	if len(opt.FleetPlacements) == 0 {
		opt.FleetPlacements = fleet.PolicyNames()
	}
	// Workload and mix definitions reach the store identity through the
	// runner spec key, not the campaign fingerprint: every Spec.Key
	// folds a digest of its resolved generator source, so an edited
	// workload file re-colds exactly the design points that use it
	// (DESIGN.md §2.1). Register file workloads and mixes before
	// building the harness so plans resolve them.
	h := &Harness{Opt: opt}
	h.run = runner.New(opt.BaseConfig, opt.Seed, opt.Parallelism)
	if opt.CacheDir != "" {
		disk, err := store.Open(opt.CacheDir, store.Fingerprint(opt.BaseConfig, opt.Seed))
		if err != nil {
			// Environmental, not programmer error: surface it when the
			// campaign first executes, so the error-returning paths
			// (AllErr, RunShard, Render) report it instead of panicking.
			h.storeErr = err
		} else {
			h.run.Store = disk
			h.run.CacheOnly = opt.FromCache
		}
	} else if opt.FromCache {
		h.storeErr = fmt.Errorf("experiments: Options.FromCache requires Options.CacheDir")
	}
	h.run.OnEvent = func(ev runner.Event) {
		if h.Verbose != nil && !ev.Cached {
			h.Verbose(ev.Key, ev.Result)
		}
		if h.Opt.Progress != nil {
			h.Opt.Progress(ev.Done, ev.Total, ev.Key)
		}
	}
	return h
}

func (h *Harness) specs() []workloads.Spec {
	var out []workloads.Spec
	for _, name := range h.Opt.Workloads {
		s, err := workloads.ByName(name)
		if err == nil {
			s, err = s.ForDevice(h.Opt.BaseConfig.Geometry.Bytes())
		}
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

// mutate lets callers adjust a variant config before a run.
type mutate = func(*system.Config)

// solo is the runner spec of one single-workload design point in the
// vocabulary of §VI-A: workload, variant, total instruction budget and
// thread count (0 = paper default).
func solo(workload string, v system.Variant, totalInstr uint64, threads int) runner.Spec {
	return runner.Spec{Workload: workload, Variant: v, TotalInstr: totalInstr, Threads: threads}
}

// mixSpec is the runner spec of one multi-tenant design point: mix m's
// tenant groups co-located under variant v, totalInstr split per the
// mix's thread counts and intensities. Threads carries the mix's
// declared total, which keeps figmix and the per-tenant figure rows on
// one key.
func mixSpec(m tenant.Mix, v system.Variant, totalInstr uint64) runner.Spec {
	return runner.Spec{Mix: m.Name, Variant: v, TotalInstr: totalInstr, Threads: m.TotalThreads()}
}

// Plan accumulates the de-duplicated design points one or more figures
// need, then executes them as a single parallel batch.
type Plan struct {
	h     *Harness
	specs []runner.Spec
	index map[string]int
	res   []*system.Result
	done  bool
}

// NewPlan starts an empty plan against the harness's runner.
func (h *Harness) NewPlan() *Plan {
	return &Plan{h: h, index: make(map[string]int)}
}

// Pending is a handle to one planned run; Result is valid only after
// the plan executed.
type Pending struct {
	p *Plan
	i int
}

// Result returns the completed measurement set.
func (pe *Pending) Result() *system.Result {
	if !pe.p.done {
		panic("experiments: Pending.Result before Plan.MustExecute")
	}
	return pe.p.res[pe.i]
}

// Add declares one design point — a solo workload, a mix, or an
// arrival spec, each named in s and resolved by the runner at
// execution — de-duplicating against earlier declarations by the
// runner's key (the machine s resolves to), and returns its handle.
// muts, when given, become s.Mutate (applied in order).
func (p *Plan) Add(s runner.Spec, muts ...mutate) *Pending {
	if p.done {
		panic("experiments: Plan.Add after Plan.MustExecute")
	}
	if len(muts) > 0 {
		s.Mutate = func(c *system.Config) {
			for _, m := range muts {
				m(c)
			}
		}
	}
	key := p.h.run.Key(s)
	if i, ok := p.index[key]; ok {
		return &Pending{p: p, i: i}
	}
	p.index[key] = len(p.specs)
	p.specs = append(p.specs, s)
	return &Pending{p: p, i: len(p.specs) - 1}
}

// Size returns the number of unique design points planned so far.
func (p *Plan) Size() int { return len(p.specs) }

// Shard returns the i-th of n deterministic, contiguous, balanced
// slices of the de-duplicated design points planned so far. Because a
// Plan accumulates specs in declaration order — which is itself
// deterministic — every process planning the same campaign computes
// identical shards: slice boundaries line up across machines without
// any coordination beyond (i, n).
func (p *Plan) Shard(i, n int) []runner.Spec {
	return runner.ShardSpecs(p.specs, i, n)
}

// Execute runs the batch across the worker pool. The possible failures
// are an unknown workload name, a cancelled context, a store that
// could not be opened, or — in render-from-cache mode — a design point
// missing from the store.
func (p *Plan) Execute(ctx context.Context) error {
	if p.h.storeErr != nil {
		return p.h.storeErr
	}
	res, err := p.h.run.RunAll(ctx, p.specs)
	if err != nil {
		return err
	}
	p.res = res
	p.done = true
	return nil
}

// MustExecute is Execute with a background context, panicking on
// failure — the right call when specs came from vetted planners and no
// store is involved.
func (p *Plan) MustExecute() {
	if err := p.Execute(context.Background()); err != nil {
		panic(err)
	}
}

// planner is one figure's plan phase: it declares runs on p and returns
// the closure that renders the table once p executed.
type planner func(p *Plan) func() Table

// table runs a single figure end to end: plan, execute, build.
func (h *Harness) table(f planner) Table {
	p := h.NewPlan()
	build := f(p)
	p.MustExecute()
	return build()
}

// Table is one reproduced figure or table.
type Table struct {
	ID     string // e.g. "fig14"
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, hcol := range t.Header {
		widths[i] = len(hcol)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// bytesLabel renders a byte count compactly for sweep headers.
func bytesLabel(n int) string {
	switch {
	case n >= mem.MiB:
		return fmt.Sprintf("%dMB", n/mem.MiB)
	case n >= mem.KiB:
		return fmt.Sprintf("%dKB", n/mem.KiB)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
